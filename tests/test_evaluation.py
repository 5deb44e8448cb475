"""Fitness function, violation counting, and batch evaluation equivalence."""

import functools
import itertools
import math
import random
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cellform import (FitnessConfig, InstanceWarning, Partition,
                      PopulationEvaluator, build_basis, build_graph,
                      compute_k, cut_from_index, decode_chromosome, decode_partition,
                      fitness, generate_instance, union_cuts,
                      violation_breakdown)
from cellform import Instance, Part, evaluation, ga, mask_from_bits
from helpers import ScriptedGenerator, instances, make_instance, \
    random_instance, reference_evaluation, reference_label_evaluation, \
    total_weight

F = Fraction


def evaluate_mask(inst, mask):
    """The evaluator's exact Evaluation of one edge mask (1 = removed)."""
    ev = PopulationEvaluator(inst)
    keep = np.array([[not (mask >> i) & 1
                      for i in range(ev.graph.edge_count)]])
    return ev.result(ev.evaluate_keeps(keep), 0)


def roulette_picks(units, gamma, draws) -> np.ndarray:
    """Rows ``ga.roulette_select`` picks for the given draws in [0, 1).
    Any float overflow or invalid operation in the weights raises."""
    with np.errstate(all="raise"):
        return ga.roulette_select(np.asarray(units), gamma, len(draws),
                                  ScriptedGenerator(random=[draws]))


def roulette_counts(units, gamma, draws=1 << 22) -> np.ndarray:
    """How often each row is picked over ``draws`` evenly spaced draws:
    ``draws`` times its share of the summed weights, to within one pick,
    and never when its weight is 0."""
    picks = roulette_picks(units, gamma, np.arange(draws) / draws)
    return np.bincount(picks, minlength=len(units))


def evaluate_cells(inst, partition):
    """The evaluator's exact Evaluation of one partition's cell labels."""
    ev = PopulationEvaluator(inst)
    labels = np.array([partition.labels(inst.machine_count)])
    return ev.result(ev.evaluate_labels(labels), 0)


class TestFitnessConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="bound must be positive"):
            FitnessConfig(F(0), 3)
        with pytest.raises(ValueError, match="constraint count"):
            FitnessConfig(F(1), -1)

    def test_make_from_instance(self, five_machine_instance,
                                five_machine_graph):
        ev = PopulationEvaluator(five_machine_instance)
        assert ev.graph == five_machine_graph
        cfg = ev.cfg
        assert cfg.bound == 8
        assert cfg.constraint_count == 5

    def test_constraint_count_includes_pairs(self):
        inst = make_instance(4, 2, [(1, (1, 2))], cohabit=[(1, 2)],
                             separate=[(3, 4), (1, 4)])
        cfg = PopulationEvaluator(inst).cfg
        assert cfg.constraint_count == 4 + 1 + 2

    def test_zero_flow_bound_falls_back_to_one(self):
        inst = make_instance(3, 3, [(0, (1, 2))])
        cfg = PopulationEvaluator(inst).cfg
        assert cfg.bound == 1


class TestTrafficAndViolations:
    def test_intercellular_traffic_golden(self, five_machine_instance):
        inst = five_machine_instance
        mask = mask_from_bits((0, 1, 1, 1, 1, 1, 1, 0))
        assert evaluate_mask(inst, mask).traffic == 6
        assert evaluate_mask(inst, 0).traffic == 0
        assert evaluate_mask(inst, 0xFF).traffic == 8

    def test_breakdown_split_cohabit(self):
        # all singletons with a cohabit pair: exactly one split pair
        with pytest.warns(InstanceWarning):
            inst = make_instance(3, 1, [(1, (1, 2))], cohabit=[(1, 2)])
        p = Partition(((0,), (1,), (2,)))
        assert violation_breakdown(p, inst) == (0, 1, 0)
        assert evaluate_cells(inst, p).violations == 1

    def test_breakdown_oversize_and_united(self):
        # everything in one cell of 6 > N=5, plus a separate pair united
        inst = make_instance(6, 5, [(1, (1, 2))], separate=[(1, 2)])
        p = Partition((tuple(range(6)),))
        assert violation_breakdown(p, inst) == (1, 0, 1)
        assert evaluate_cells(inst, p).violations == 2

    def test_feasible_partition_counts_zero(self, five_machine_instance):
        p = Partition(((0, 2), (1,), (3, 4)))
        assert evaluate_cells(five_machine_instance, p).violations == 0


class TestFitnessFormula:
    CFG = FitnessConfig(F(10), 2)

    def test_goldens(self):
        assert fitness(F(3), 0, self.CFG) == 27
        assert fitness(F(0), 2, self.CFG) == 10
        assert isinstance(fitness(F(3), 0, self.CFG), Fraction)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="internal inconsistency"):
            fitness(F(1), 3, self.CFG)
        with pytest.raises(ValueError, match="internal inconsistency"):
            fitness(F(11), 0, self.CFG)

    def test_monotone_in_violations(self):
        for z in (F(0), F(4), F(10)):
            values = [fitness(z, v, self.CFG) for v in range(3)]
            assert values[0] > values[1] > values[2]

    def test_monotone_in_traffic(self):
        for v in range(3):
            assert fitness(F(2), v, self.CFG) > fitness(F(5), v, self.CFG)

    def test_boundary_tie(self):
        # at traffic exactly equal to the bound, a solution ties with the
        # zero-traffic solution one violation level down; strict separation
        # between violation levels therefore requires traffic < bound
        assert fitness(F(10), 0, self.CFG) == fitness(F(0), 1, self.CFG)

    @pytest.mark.parametrize("volumes", [
        (1,), (F(1, 999983), F(1, 999979), F(1, 999961), F(1, 999959))],
        ids=["int64", "object"])
    def test_rank_breaks_boundary_tie(self, volumes):
        # a three-machine chain, N = 2: its singletons are feasible at
        # Z = B, its one cell is oversize at Z = 0, and their Y tie; rank
        # puts the feasible row first in either order
        inst = make_instance(3, 2, [(v, (1, 2, 3)) for v in volumes])
        ev = PopulationEvaluator(inst)
        assert ev.units_dtype is (np.int64 if len(volumes) == 1 else object)
        for labels in ([[0, 1, 2], [0, 0, 0]], [[0, 0, 0], [0, 1, 2]]):
            batch = ev.evaluate_labels(np.array(labels))
            feasible = labels.index([0, 1, 2])
            assert batch.violations[feasible] == 0
            assert batch.violations[1 - feasible] == 1
            assert batch.fitness_units[0] == batch.fitness_units[1]
            assert batch.rank.argmax() == feasible
            assert batch.rank[feasible] > batch.rank[1 - feasible]

    def test_strict_separation_below_bound(self):
        rng = random.Random(8)
        for _ in range(500):
            bound = F(rng.randint(1, 10 ** 6), rng.randint(1, 100))
            u = rng.randint(1, 12)
            cfg = FitnessConfig(bound, u)
            q = rng.randint(1, 1000)
            z_low = bound * F(rng.randint(0, q - 1), q)
            z_high = bound * F(rng.randint(0, q - 1), q)
            v = rng.randint(0, u - 1)
            assert fitness(z_low, v, cfg) > fitness(z_high, v + 1, cfg)

    def test_power_tuning_order_preserving(self, five_machine_instance):
        # gamma reshapes only the roulette weights, and they must keep the
        # order of Y (B = 8, u = 5 here)
        ev = PopulationEvaluator(five_machine_instance)
        rng = random.Random(9)
        samples = [(F(rng.randint(0, 8)), rng.randint(0, 5))
                   for _ in range(60)]
        ys = [fitness(z, v, ev.cfg) for z, v in samples]
        units = np.array([int(y * ev.scale) for y in ys], dtype=np.int64)
        counts_ident = roulette_counts(units, None)
        counts_power = roulette_counts(units, 2.5)
        for i, a in enumerate(ys):
            for j, b in enumerate(ys):
                if a > b:
                    assert counts_ident[i] > counts_ident[j] + 1
                    assert counts_power[i] > counts_power[j] + 1

    def test_power_tuning_fitness_is_exact_y(self):
        # Y never sees gamma: float(Y) ** 200 once overflowed here, as
        # 59 ** 200 is beyond float range
        y = fitness(F(1), 0, FitnessConfig(F(10), 5))
        assert y == 59
        assert isinstance(y, Fraction)


class TestEvaluate:
    def test_five_machine_golden(self, five_machine_instance):
        mask = mask_from_bits((0, 1, 1, 1, 1, 1, 1, 0))
        ev = evaluate_mask(five_machine_instance, mask)
        assert ev.partition.cells == ((0, 2), (1,), (3, 4))
        assert ev.traffic == 6
        assert ev.violations == 0
        assert ev.feasible
        assert ev.fitness == (8 - 6) + 5 * 8

    def test_single_cell_optimum_when_unconstrained(self):
        inst = make_instance(4, 4, [(2, (1, 2, 3, 4))])
        cfg = PopulationEvaluator(inst).cfg
        ev = evaluate_mask(inst, 0)
        assert ev.traffic == 0 and ev.feasible
        assert ev.fitness == (cfg.constraint_count + 1) * cfg.bound

    def test_traffic_matches_partition_boundary_for_cut_unions(self):
        rng = random.Random(31)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InstanceWarning)
            for _ in range(50):
                inst = random_instance(rng, 6, max_parts=8)
                evaluator = PopulationEvaluator(inst)
                g = evaluator.graph
                basis = build_basis(g)
                parts = [rng.randint(1, basis.max_index)
                         for _ in range(rng.randint(1, 3))]
                union = union_cuts([cut_from_index(basis, n) for n in parts])
                ev = evaluator.result(
                    evaluator.evaluate_parts(evaluator.pack_parts([parts])), 0)
                assert ev.partition == decode_partition(g, union)
                # independent recomputation over the decoded partition
                labels = ev.partition.labels(6)
                boundary = sum((e.weight for e in g.edges
                                if labels[e.u] != labels[e.v]), F(0))
                marked = sum((e.weight for i, e in enumerate(g.edges)
                              if (union >> i) & 1), F(0))
                assert ev.traffic == boundary == marked
                assert evaluate_cells(inst, ev.partition) == ev

    def test_infeasible_flag(self, five_machine_instance):
        ev = evaluate_mask(five_machine_instance, 0)
        assert ev.violations == 1  # one cell of five > max size 2
        assert not ev.feasible


def matching_keep(ev, rng) -> np.ndarray:
    """Keep row of a maximal matching of the flow graph's edges, in random
    order: with N = 1, one oversize cell per kept edge, up to m / 2."""
    keep = np.zeros(ev.graph.edge_count, dtype=bool)
    used = set()
    for i in rng.sample(range(len(keep)), len(keep)):
        a, b = int(ev.edge_u[i]), int(ev.edge_v[i])
        if a not in used and b not in used:
            keep[i] = True
            used |= {a, b}
    return keep


def check_fitness_at_least_bound(inst, seed):
    """Y >= B on random parts, keep and label rows: a cell of more than
    N >= 1 machines holds two or more, so at most m / 2 cells are oversize,
    v <= m / 2 + |SC| + |SN| < u and Y = (B - Z) + (u - v) * B >= B.
    ``ga.roulette_select`` divides by the largest Y with no zero guard.
    Returns the evaluator and its parts, keep and label batches."""
    rng = random.Random(seed)
    ev = PopulationEvaluator(inst)
    m, e = inst.machine_count, ev.graph.edge_count
    k = compute_k(m, inst.max_cell_size)
    parts = [[rng.getrandbits(m - 1) for _ in range(k)] for _ in range(12)]
    parts += [[0] * k, [(1 << (m - 1)) - 1] * k]
    keeps = [np.array([rng.random() < share for _ in range(e)])
             for share in (0.0, 0.2, 0.5, 0.8, 1.0)]
    keeps += [matching_keep(ev, rng) for _ in range(4)]
    for keep in keeps[-4:]:
        # split every SC pair, unite every SN pair
        keep[list(ev.graph.in_sc)], keep[list(ev.graph.in_sn)] = False, True
    labels = [[rng.randrange(top) for _ in range(m)]
              for top in (1, 2, m // 2 or 1, m) for _ in range(3)]
    labels.append([v // 2 for v in range(m)])
    batches = (ev.evaluate_parts(ev.pack_parts(parts)),
               ev.evaluate_keeps(np.array(keeps)),
               ev.evaluate_labels(np.array(labels)))
    for batch in batches:
        assert (batch.fitness_units >= ev.bound_units).all()
    return ev, batches


class TestFitnessAtLeastBound:
    @given(instances(), st.integers(0, 2 ** 32))
    def test_random_shops(self, inst, seed):
        check_fitness_at_least_bound(inst, seed)

    @pytest.mark.parametrize("seed", range(5))
    def test_one_machine_cells_with_pairs(self, seed):
        # N = 1: every kept edge of a matching is an oversize cell, and the
        # SC pairs can only be split
        with pytest.warns(InstanceWarning):
            inst = make_instance(
                8, 1, [(3, (1, 2, 3, 4, 5, 6, 7, 8)), (1, (8, 1, 5))],
                cohabit=[(1, 2), (3, 4)], separate=[(5, 6), (7, 8)])
        check_fitness_at_least_bound(inst, seed)

    @pytest.mark.parametrize("inst", [
        Instance(5, 1, ()),
        make_instance(5, 2, [(0, (1, 2, 3))], cohabit=[(1, 3)],
                      separate=[(2, 4)])], ids=["no parts", "zero volume"])
    def test_shop_without_flow(self, inst):
        ev, batches = check_fitness_at_least_bound(inst, 0)
        assert ev.bound_units == ev.scale and ev.cfg.bound == 1
        # B is one scale unit, not the total flow: traffic read off B
        # would be positive here and still leave Y >= B
        for batch in batches:
            assert (batch.traffic_units == 0).all()
            assert all(ev.result(batch, i).traffic == 0
                       for i in range(len(batch.traffic_units)))


@st.composite
def fractional_shops(draw):
    """(instance, population): up to 130 machines, volumes with
    denominators up to 10^9, SC/SN pairs, any part count."""
    m = draw(st.integers(2, 130))
    n = draw(st.integers(1, m))
    part_total = draw(st.integers(0, 2 * m))
    max_den = draw(st.sampled_from([1, 7, 10 ** 3, 10 ** 9]))
    k = draw(st.integers(1, 70))
    density = draw(st.sampled_from([0.05, 0.3, 1.0]))
    size = draw(st.integers(1, 6))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    parts = []
    for _ in range(part_total):
        routing = [rng.randrange(m)]
        for _ in range(rng.randint(1, 7)):
            step = rng.randrange(m - 1)
            routing.append(step + (step >= routing[-1]))
        volume = Fraction(rng.randint(0, 10 ** 6), rng.randint(1, max_den))
        parts.append(Part(volume, tuple(routing)))
    low = min(m, 12)
    all_pairs = [(a, b) for a in range(low) for b in range(a + 1, low)]
    pairs = rng.sample(all_pairs, min(rng.randint(0, 3), len(all_pairs)))
    split = rng.randint(0, len(pairs))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InstanceWarning)
        inst = Instance(m, n, tuple(parts), frozenset(pairs[:split]),
                        frozenset(pairs[split:]))
    return inst, random_parts_population(rng, k, 1 << (m - 1), size,
                                         density)


def check_parts_against_scalar(inst, population):
    """evaluate_parts agrees exactly with the scalar reference per row."""
    ev = PopulationEvaluator(inst)
    g, cfg = ev.graph, ev.cfg
    basis = build_basis(g)
    batch = ev.evaluate_parts(ev.pack_parts(population))
    for i, parts in enumerate(population):
        scalar = reference_evaluation(
            inst, decode_chromosome(parts, basis, g), cfg)
        assert ev.to_fraction(batch.traffic_units[i]) == scalar.traffic
        assert batch.violations[i] == scalar.violations
        assert ev.to_fraction(batch.fitness_units[i]) == scalar.fitness
        assert ev.result(batch, i) == scalar
    return ev


@given(fractional_shops())
def test_evaluate_parts_equals_scalar_evaluate(shop):
    check_parts_against_scalar(*shop)


def random_parts_population(rng, k, part_count, size, density=1.0):
    """Chromosomes; below density 1 a part is drawn only with probability
    ``density`` and is 0 otherwise."""
    return [tuple(rng.randrange(part_count)
                  if density == 1 or rng.random() < density else 0
                  for _ in range(k))
            for _ in range(size)]


def random_label_matrix(rng, m, rows):
    """(rows, m) labels; row i draws each label from 0..i mod m."""
    return np.array([[rng.randrange(1 + i % m) for _ in range(m)]
                     for i in range(rows)])


def signature_labels(population, m):
    """Per-row dense ranks of each machine's signature, the tuple of its
    bits in the parts (bit v of part j for machine v)."""
    rows = []
    for parts in population:
        signatures = [tuple(p >> v & 1 for p in parts) for v in range(m)]
        rank = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        rows.append([rank[sig] for sig in signatures])
    return np.array(rows)


class TestPartsAreSignatureLabels:
    """evaluate_parts gives the batch evaluate_labels gives for the labels
    its signatures are, on every array of the batch."""

    @pytest.mark.parametrize("m, max_cell_size", [
        (5, None), (50, None), (96, None),
        (130, 2),  # K = 65 > 64: two signature words
    ])
    def test_equal_batches(self, m, max_cell_size):
        rng = random.Random(m)
        for _ in range(6):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", InstanceWarning)
                inst = random_instance(
                    rng, m, max_parts=2 * m,
                    max_cell_size=max_cell_size or rng.randint(1, m))
            ev = PopulationEvaluator(inst)
            k = compute_k(m, inst.max_cell_size)
            # dense rows split the machines finely; sparse ones leave large
            # classes, and a row whose only nonzero part is the last one is
            # told apart only by the last signature word
            population = random_parts_population(rng, k, 1 << (m - 1), 10)
            population += random_parts_population(rng, k, 1 << (m - 1), 20,
                                                  density=1.5 / k)
            population += [(0,) * (k - 1) + (rng.randrange(1, 1 << (m - 1)),)
                           for _ in range(3)]
            parts = ev.evaluate_parts(ev.pack_parts(population))
            labels = ev.evaluate_labels(signature_labels(population, m))
            for name in ("traffic_units", "violations", "fitness_units",
                         "inside"):
                a, b = getattr(parts, name), getattr(labels, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestPopulationEvaluator:
    def _check_parts_against_scalar(self, inst, rng, size=40, k=None,
                                    density=1.0):
        if k is None:
            k = rng.randint(1, 4)
        part_count = 1 << (inst.machine_count - 1)
        return check_parts_against_scalar(
            inst, random_parts_population(rng, k, part_count, size, density))

    def test_parts_match_scalar_unit_weights(self, five_machine_instance):
        self._check_parts_against_scalar(five_machine_instance,
                                         random.Random(41))

    def test_parts_match_scalar_fraction_weights(self):
        inst = make_instance(
            6, 2,
            [(F(1, 2), (1, 3, 5)), (F(2, 3), (2, 4)), (F(5), (1, 2)),
             (F(1, 6), (5, 6, 4))],
            cohabit=[(1, 3)], separate=[(2, 5)])
        self._check_parts_against_scalar(inst, random.Random(42))

    def test_parts_match_scalar_random_instances(self):
        rng = random.Random(43)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InstanceWarning)
            for _ in range(10):
                inst = random_instance(rng, rng.randint(3, 9))
                self._check_parts_against_scalar(inst, rng, size=15)

    @pytest.mark.parametrize("m", [64, 65, 96, 130])
    def test_parts_match_scalar_wide_shops(self, m):
        # one, one (vertex m - 1 past the part bits), two and three words
        rng = random.Random(m)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InstanceWarning)
            inst = random_instance(rng, m, max_parts=3 * m,
                                   max_cell_size=rng.randint(2, 9))
        self._check_parts_against_scalar(inst, rng, size=12,
                                         k=rng.randint(2, 9))

    def test_parts_match_scalar_two_signature_words(self):
        # N = 1 at m = 70: K = 70 parts, so signatures span two words;
        # sparse parts leave cells that only the second word tells apart
        rng = random.Random(70)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InstanceWarning)
            inst = random_instance(rng, 70, max_parts=150, max_cell_size=1)
        self._check_parts_against_scalar(inst, rng, size=30, k=70,
                                         density=0.03)

    @pytest.mark.parametrize("k", [8, 9, 16, 17, 32, 33, 64, 65])
    def test_parts_match_scalar_at_signature_widths(self, k):
        # signatures take the narrowest unsigned type holding K bits; a row
        # whose only nonzero part is the last one sets the top bit of the
        # signature, which a type one bit too narrow would drop
        rng = random.Random(k)
        inst = generate_instance(k, 2 * k, 1, seed=k)
        population = random_parts_population(rng, k, 1 << (k - 1), 6, 0.3)
        population += [(0,) * (k - 1) + (rng.randrange(1, 1 << (k - 1)),)
                       for _ in range(4)]
        check_parts_against_scalar(inst, population)

    def test_parts_match_scalar_beyond_int64(self):
        # (u + 1) * B >= 2^62 in units: the unit arrays hold Python ints
        primes = [1000003, 1000033, 1000037, 1000039]
        routings = [(F(7 * i + 3, p), (i + 1, (i + 2) % 12 + 1, i % 12 + 1))
                    for i, p in enumerate(primes * 3)]
        inst = make_instance(12, 4, routings, cohabit=[(1, 2)],
                             separate=[(3, 4)])
        ev = self._check_parts_against_scalar(inst, random.Random(46))
        assert ev.units_dtype is object
        assert (ev.u + 1) * ev.bound_units >= 2 ** 62

    def test_keeps_match_decoded_partition(self, five_machine_instance):
        # arbitrary masks: batch measures the decoded partition's cost
        inst = five_machine_instance
        ev = PopulationEvaluator(inst)
        g, cfg = ev.graph, ev.cfg
        rng = random.Random(44)
        masks = [rng.getrandbits(8) for _ in range(64)]
        keep = np.array([[not ((m >> i) & 1) for i in range(8)]
                         for m in masks])
        batch = ev.evaluate_keeps(keep)
        for i, mask in enumerate(masks):
            p = decode_partition(g, mask)
            scalar = reference_evaluation(inst, p, cfg)
            assert ev.to_fraction(batch.traffic_units[i]) == \
                scalar.traffic
            assert batch.violations[i] == scalar.violations
            assert ev.to_fraction(batch.fitness_units[i]) == \
                scalar.fitness
            assert ev.result(batch, i).partition == p

    def test_keeps_match_decoded_partition_wide(self):
        # past 63 machines, arbitrary keep masks decode like the scalar path
        rng = random.Random(45)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InstanceWarning)
            inst = random_instance(rng, 80, max_parts=200, max_cell_size=6)
        ev = PopulationEvaluator(inst)
        g, cfg = ev.graph, ev.cfg
        ecount = g.edge_count
        masks = [rng.getrandbits(ecount) | rng.getrandbits(ecount)
                 for _ in range(20)]
        keep = np.array([[not ((mask >> i) & 1) for i in range(ecount)]
                         for mask in masks])
        batch = ev.evaluate_keeps(keep)
        for i, mask in enumerate(masks):
            p = decode_partition(g, mask)
            scalar = reference_evaluation(inst, p, cfg)
            assert ev.to_fraction(batch.traffic_units[i]) == scalar.traffic
            assert batch.violations[i] == scalar.violations
            assert ev.to_fraction(batch.fitness_units[i]) == scalar.fitness
            assert ev.result(batch, i).partition == p

    def test_batch_keeps_its_own_masks(self, five_machine_instance):
        # result decodes cells after the call: reusing the caller's keep
        # buffer must not change them
        ev = PopulationEvaluator(five_machine_instance)
        keep = np.ones((1, ev.graph.edge_count), dtype=bool)
        batch = ev.evaluate_keeps(keep)
        before = ev.result(batch, 0)
        keep[:] = False
        assert ev.result(batch, 0) == before

    def test_exact_scaling_with_fraction_weights(self):
        inst = make_instance(3, 1, [(F(1, 2), (1, 2)), (F(1, 3), (2, 3))])
        ev = PopulationEvaluator(inst)
        assert ev.scale == 6
        assert ev.to_fraction(3) == F(1, 2)
        assert isinstance(ev.to_fraction(3), Fraction)
        assert ev.bound_units == 5

    def test_integer_setup_matches_fractions_fuzz(self):
        # the set-up sums integer units; recompute every quantity from the
        # Fraction weights, on denominators that mix primes, powers and
        # composites and on totals past int64
        rng = random.Random(654)
        denominators = [1, 2, 3, 4, 6, 7, 9, 10, 12, 25, 49, 97, 1000003,
                        10 ** 9 + 7]
        dtypes = set()
        for _ in range(200):
            m = rng.randint(2, 14)
            parts = []
            for _ in range(rng.randint(0, 15)):
                routing = [rng.randrange(m)]
                for _ in range(rng.randint(1, 7)):
                    step = rng.randrange(m - 1)
                    routing.append(step + (step >= routing[-1]))
                volume = Fraction(rng.randint(0, 10 ** rng.randint(1, 12)),
                                  rng.choice(denominators))
                parts.append(Part(volume, tuple(routing)))
            pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
            pairs = rng.sample(pairs, min(rng.randint(0, 3), len(pairs)))
            split = rng.randint(0, len(pairs))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", InstanceWarning)
                inst = Instance(m, rng.randint(1, m), tuple(parts),
                                frozenset(pairs[:split]),
                                frozenset(pairs[split:]))
            ev = PopulationEvaluator(inst)
            g = ev.graph
            scale = math.lcm(*(e.weight.denominator for e in g.edges))
            u = m + len(pairs)
            assert ev.cfg == FitnessConfig(total_weight(g) or F(1), u)
            assert ev.scale == scale
            assert ev.bound_units == ev.cfg.bound * scale
            units = [e.weight * scale for e in g.edges]
            assert all(w.denominator == 1 for w in units)
            dtype = np.int64 if (u + 1) * ev.bound_units < 2 ** 62 \
                else object
            assert ev.units_dtype is dtype
            assert ev.weight_units.dtype == dtype
            assert ev.weight_units.tolist() == units
            assert all(type(w) is int for w in ev.weight_units.tolist())
            # the graph owns the units: its scale and units are the
            # Fraction view's, and a second build is an equal graph
            assert g.scale == scale
            assert list(g.units) == units
            assert all(type(w) is int for w in g.units)
            assert build_graph(inst) == g
            assert hash(build_graph(inst)) == hash(g)
            dtypes.add(dtype)
        assert dtypes == {np.int64, object}

    def test_selection_weights_proportional(self):
        units = np.array([8, 16, 24], dtype=np.int64)
        counts = roulette_counts(units, None)
        assert counts[1] / counts[0] == pytest.approx(2.0, rel=1e-4)
        assert counts[2] / counts[0] == pytest.approx(3.0, rel=1e-4)

    def test_selection_weights_power(self):
        units = np.array([8, 16], dtype=np.int64)
        counts = roulette_counts(units, 2.0)
        assert counts[1] / counts[0] == pytest.approx(4.0, rel=1e-4)

    def test_selection_weights_power_never_overflows(self):
        # weights 2^-200 (6.2e-61), 1 and 0, all finite: only draws below
        # the first weight's share pick the first row, and none the last;
        # object units beyond float range give the same ratios
        draws = 1 << 20
        for units in (np.array([10 ** 6, 2 * 10 ** 6, 0], dtype=np.int64),
                      np.array([10 ** 400, 2 * 10 ** 400, 0], dtype=object)):
            assert roulette_picks(units, 200.0, [0.0, 1e-70, 1e-50, 0.5,
                                                 0.999]).tolist() == \
                [0, 0, 1, 1, 1]
            assert roulette_counts(units, 200.0, draws).tolist() == \
                [1, draws - 1, 0]


def signatures(parts, m):
    """The signature of each of the m vertices: bit j is its bit in part
    j."""
    return [sum(((p >> v) & 1) << j for j, p in enumerate(parts))
            for v in range(m)]


def largest_class(parts, m):
    """Most vertices sharing one signature."""
    return max(Counter(signatures(parts, m)).values())


def kept_edges(graph, keys):
    """Edges of ``graph`` whose ends have equal keys (signatures or
    labels): the edges a class batch keeps."""
    return sum(keys[u] == keys[v] for u, v in zip(graph.u, graph.v))


def flagged_rows(graph, n, rows):
    """Indices of the rows of per-vertex keys that go through the peel:
    those that keep at least n edges (a cell of more than n machines is
    joined by at least n)."""
    return [i for i, keys in enumerate(rows) if kept_edges(graph, keys) >= n]


def spy_peels(monkeypatch, ev):
    """The keep matrices ``ev``'s peel gets, each as a list of row tuples,
    in call order."""
    calls = []
    original = ev._peel

    def spy(keep):
        calls.append([tuple(row) for row in keep.tolist()])
        return original(keep)

    monkeypatch.setattr(ev, "_peel", spy)
    return calls


def check_peeled(calls, batch, flagged):
    """Check that the peel ran once on exactly the keep rows of the
    ``flagged`` rows of a batch (a class row keeps exactly its edges
    inside cells), in order, and not at all when no row is flagged; return
    those rows."""
    rows = [tuple(batch.inside[:, i].tolist()) for i in flagged]
    assert calls == ([rows] if rows else [])
    return rows


class TestPeelOnlyRowsKeepingNEdges:
    """evaluate_parts and evaluate_labels count oversize cells only on the
    rows that keep at least N edges: the peel gets exactly those keep
    rows, in one call, and is not called when no row keeps as many; every
    row's result still equals the scalar reference."""

    @staticmethod
    def peeled_rows(monkeypatch, inst, population, flagged):
        """Check that evaluate_parts peels exactly the keep rows of the
        ``flagged`` individuals, in order, and return those rows."""
        ev = PopulationEvaluator(inst)
        with monkeypatch.context() as patch:
            calls = spy_peels(patch, ev)
            batch = ev.evaluate_parts(ev.pack_parts(population))
        return check_peeled(calls, batch, flagged)

    @staticmethod
    def check_labels(monkeypatch, inst, labels, flagged):
        """Check that evaluate_labels peels exactly the keep rows of the
        ``flagged`` label rows and that every row equals the reference."""
        ev = PopulationEvaluator(inst)
        with monkeypatch.context() as patch:
            calls = spy_peels(patch, ev)
            batch = ev.evaluate_labels(labels)
        check_peeled(calls, batch, flagged)
        for i, row in enumerate(labels):
            assert ev.result(batch, i) == reference_label_evaluation(
                inst, row, ev.cfg)

    def test_no_rows_when_fewer_than_n_edges_kept(self, monkeypatch):
        rng = random.Random(47)
        inst = random_instance(rng, 8, max_cell_size=2)
        g = build_graph(inst)
        population = [ch for ch in random_parts_population(rng, 6, 1 << 7, 60)
                      if kept_edges(g, signatures(ch, 8)) < 2]
        assert len(population) >= 10
        assert self.peeled_rows(monkeypatch, inst, population, []) == []
        check_parts_against_scalar(inst, population)

    @pytest.mark.parametrize("n, k", [(1, 8), (2, 5)])
    def test_only_rows_keeping_n_edges(self, monkeypatch, n, k):
        # sparse parts: some rows keep N edges or more, some do not
        rng = random.Random(48 + n)
        inst = random_instance(rng, 10, max_parts=20, max_cell_size=n)
        population = random_parts_population(rng, k, 1 << 9, 40, 0.8)
        flagged = flagged_rows(build_graph(inst), n,
                               [signatures(ch, 10) for ch in population])
        assert 0 < len(flagged) < len(population)
        assert len(self.peeled_rows(
            monkeypatch, inst, population, flagged)) == len(flagged)
        check_parts_against_scalar(inst, population)

    def test_two_word_signatures_are_exact(self, monkeypatch):
        # K = 70 at m = 70, N = 1. Row 0: parts 0..62 isolate vertices
        # 0..62 and parts 64..69 vertices 63..68, so every signature is
        # distinct although vertices 63..69 share the first word 0, and
        # the row keeps no edge. Row 1 gives vertex v the first word
        # v + 1 (vertex 69 keeps 0). Row 2 is row 0 with the ends of the
        # one edge among 63..69 on one signature: it keeps that edge and
        # is the one row peeled.
        rng = random.Random(71)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InstanceWarning)
            inst = random_instance(rng, 70, max_parts=150, max_cell_size=1)
        g = build_graph(inst)
        (a, b), = [(u, v) for u, v in zip(g.u, g.v) if u >= 63]
        collide = tuple([1 << j for j in range(63)] + [0]
                        + [1 << (63 + i) for i in range(6)])
        distinct = tuple(sum(((v + 1) >> j & 1) << v for v in range(69))
                         for j in range(64)) + (0,) * 6
        joined = tuple(p & ~(1 << a) | (p >> b & 1) << a for p in collide)
        population = [collide, distinct, joined]
        assert [largest_class(ch, 70) for ch in population] == [1, 1, 2]
        assert [kept_edges(g, signatures(ch, 70)) for ch in population] \
            == [0, 0, 1]
        assert flagged_rows(g, 1, [signatures(ch, 70)
                                   for ch in population]) == [2]
        assert len(self.peeled_rows(monkeypatch, inst, population, [2])) == 1
        check_parts_against_scalar(inst, population)

    def test_only_label_rows_keeping_n_edges(self, monkeypatch):
        # rows of 1..10 labels on 10 machines, N = 3: a row is peeled only
        # when it keeps at least 3 edges
        rng = random.Random(52)
        inst = random_instance(rng, 10, max_parts=20, max_cell_size=3)
        labels = random_label_matrix(rng, 10, 60)
        flagged = flagged_rows(build_graph(inst), 3, labels.tolist())
        assert 0 < len(flagged) < len(labels)
        self.check_labels(monkeypatch, inst, labels, flagged)

    @staticmethod
    def shop_of_n3():
        """The N = 3 shop of the label tests, and its flow graph."""
        inst = random_instance(random.Random(52), 10, max_parts=20,
                               max_cell_size=3)
        return inst, build_graph(inst)

    def test_class_of_few_kept_edges_is_not_peeled(self, monkeypatch):
        # on the N = 3 shop, row 0 puts four machines joined by fewer than
        # three edges in one class and every other machine in a class of
        # its own: no cell can be oversize, so the row is not peeled. Row
        # 1, one class of all ten machines, is.
        inst, g = self.shop_of_n3()
        group = next(four for four in itertools.combinations(range(10), 4)
                     if kept_edges(g, [v if v not in four else -1
                                       for v in range(10)]) < 3)
        labels = np.array([[-1 if v in group else v for v in range(10)],
                           [0] * 10])
        assert max(Counter(labels[0].tolist()).values()) == 4
        assert kept_edges(g, labels[0].tolist()) < 3
        self.check_labels(monkeypatch, inst, labels, [1])

    def test_fitting_classes_keeping_n_edges_are_peeled(self, monkeypatch):
        # on the N = 3 shop, row 0 pairs the ends of three disjoint
        # flow-graph edges and leaves every other machine on its own: no
        # class exceeds N, but the row keeps three edges, so it is peeled
        # (and found to hold no oversize cell). Row 1 keeps no edge and is
        # not peeled.
        inst, g = self.shop_of_n3()
        row = list(range(10))
        used = set()
        for u, v in zip(g.u, g.v):
            if len(used) < 6 and not {u, v} & used:
                row[v] = u
                used |= {u, v}
        labels = np.array([row, list(range(10))])
        assert len(used) == 6
        assert max(Counter(row).values()) == 2
        assert kept_edges(g, row) == 3
        self.check_labels(monkeypatch, inst, labels, [0])

    def test_no_row_peeled_when_n_exceeds_e(self, monkeypatch):
        # N = 10^30 exceeds E, so no row keeps N edges and none is peeled,
        # not even the one class of all machines; every part, label and
        # keep row still equals the reference
        self.check_no_row_peeled(monkeypatch, 10 ** 30)

    def test_no_row_peeled_at_n_beyond_float_range(self, monkeypatch):
        # N has no upper limit: at 10^400 no float holds it, and the rows
        # are flagged against min(N, E + 1) instead
        self.check_no_row_peeled(monkeypatch, 10 ** 400)

    def check_no_row_peeled(self, monkeypatch, n):
        rng = random.Random(30)
        shop = random_instance(rng, 12, max_parts=20)
        inst = Instance(12, n, shop.parts, shop.cohabit, shop.separate)
        population = random_parts_population(rng, 4, 1 << 11, 30, 0.3)
        assert self.peeled_rows(monkeypatch, inst, population, []) == []
        check_parts_against_scalar(inst, population)
        labels = np.concatenate([random_label_matrix(rng, 12, 30),
                                 np.zeros((1, 12), dtype=int)])
        self.check_labels(monkeypatch, inst, labels, [])
        ev = PopulationEvaluator(inst)
        keep = np.random.default_rng(30).random(
            (20, ev.graph.edge_count)) < 0.5
        batch = ev.evaluate_keeps(keep)
        for i, row in enumerate(keep):
            assert ev.result(batch, i) == reference_evaluation(
                inst, decode_partition(ev.graph, mask_from_bits(~row)),
                ev.cfg)


class TestBatchRowsOnLastAxis:
    """Every EvalBatch field holds the rows on its last axis, and
    ``inside`` is edge-major (E, pop): ``evolve`` reinserts its elite as
    ``a[..., worst]`` on every field."""

    @pytest.mark.parametrize("pop", [1, 64, 65])
    def test_every_batch_kind(self, pop):
        rng = random.Random(pop)
        inst = generate_instance(12, 24, 3, seed=pop)
        ev = PopulationEvaluator(inst)
        m, e = inst.machine_count, ev.graph.edge_count
        k = compute_k(m, inst.max_cell_size)
        parts = [[rng.getrandbits(m - 1) for _ in range(k)]
                 for _ in range(pop)]
        keeps = [[rng.random() < 0.5 for _ in range(e)] for _ in range(pop)]
        labels = [[rng.randrange(4) for _ in range(m)] for _ in range(pop)]
        for batch in (ev.evaluate_parts(ev.pack_parts(parts)),
                      ev.evaluate_keeps(np.array(keeps)),
                      ev.evaluate_labels(np.array(labels))):
            for name, value in vars(batch).items():
                assert value.shape[-1] == pop, name
            assert batch.inside.shape == (e, pop)


class TestOneEvaluatorForEveryBatch:
    """One evaluator serves batches of any size and kind in turn: 200 keep
    rows, 350 keep rows, then cut chromosomes, whose rows that keep at
    least N edges go through the same peel in one call, and label rows.
    Every row, read back through ``result``, equals the scalar
    reference."""

    @pytest.mark.parametrize("m, n, k", [(10, 2, 3), (80, 6, 8)])
    def test_batches_of_changing_size(self, monkeypatch, m, n, k):
        rng = random.Random(m)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InstanceWarning)
            inst = random_instance(rng, m, max_parts=3 * m, max_cell_size=n)
        ev = PopulationEvaluator(inst)
        g, cfg = ev.graph, ev.cfg
        ecount = g.edge_count

        open_rows = []
        for size in (200, 350):
            # few or many edges removed: large cells and small ones
            masks = [rng.getrandbits(ecount) & rng.getrandbits(ecount)
                     if i % 2 else
                     rng.getrandbits(ecount) | rng.getrandbits(ecount)
                     for i in range(size)]
            batch = ev.evaluate_keeps(np.array(
                [[not (mask >> i) & 1 for i in range(ecount)]
                 for mask in masks]))
            open_rows.append(0)
            for i, mask in enumerate(masks):
                p = decode_partition(g, mask)
                open_rows[-1] += len(p.cells) > 1
                scalar = reference_evaluation(inst, p, cfg)
                assert ev.result(batch, i) == scalar
                assert ev.to_fraction(batch.traffic_units[i]) == \
                    scalar.traffic
                assert batch.violations[i] == scalar.violations
        # both batches mix rows of one cell and rows of more
        assert 0 < open_rows[0] < open_rows[1] < 350

        population = random_parts_population(rng, k, 1 << (m - 1), 120, 0.5)
        flagged = flagged_rows(g, n,
                               [signatures(ch, m) for ch in population])
        assert 0 < len(flagged) < len(population)
        with monkeypatch.context() as patch:
            calls = spy_peels(patch, ev)
            batch = ev.evaluate_parts(ev.pack_parts(population))
        check_peeled(calls, batch, flagged)
        basis = build_basis(g)
        for i, parts in enumerate(population):
            assert ev.result(batch, i) == reference_evaluation(
                inst, decode_chromosome(parts, basis, g), cfg)

        labels = random_label_matrix(rng, m, 120)
        batch = ev.evaluate_labels(labels)
        for i, row in enumerate(labels):
            assert ev.result(batch, i) == reference_label_evaluation(
                inst, row, cfg)


# an m = 2 shop whose one cell is oversize (N = 1), a shop whose flow graph
# is stitched connected by fictive edges (N = 2), and a fictive-edge shop
# where one cell fits (N = m = 12)
SWEEP_SHOPS = {
    "m2": lambda: make_instance(2, 1, [(3, (1, 2))]),
    "fictive": lambda: make_instance(
        8, 2, [(3, (2, 3, 4)), (2, (5, 6))], cohabit=[(7, 8)],
        separate=[(5, 6)]),
    "roomy": lambda: random_instance(random.Random(60), 12, max_parts=10,
                                     max_cell_size=12),
}


def peel_rounds(partition):
    """Sweeps evaluate_keeps spends on a row: one per cell of two or more
    machines (a machine that keeps no edge is settled without one)."""
    return sum(len(cell) > 1 for cell in partition.cells)


class TestOneCellSweep:
    """evaluate_keeps peels the cells of all rows at once, one sweep per
    cell of two or more machines. Across word boundaries (pop 1, 63, 64,
    65, 129) and keep densities from none to all, every row equals the
    reference evaluation of its decoded partition."""

    @staticmethod
    def batch(shop, pop, density):
        inst = SWEEP_SHOPS[shop]()
        ev = PopulationEvaluator(inst)
        rng = np.random.default_rng([pop, round(10 * density)])
        keep = rng.random((pop, ev.graph.edge_count)) < density
        partitions = [decode_partition(ev.graph, mask_from_bits(~row))
                      for row in keep]
        return inst, ev, ev.evaluate_keeps(keep), partitions

    @pytest.mark.parametrize("density", [0, 0.2, 0.5, 0.9, 1])
    @pytest.mark.parametrize("pop", [1, 63, 64, 65, 129])
    @pytest.mark.parametrize("shop", sorted(SWEEP_SHOPS))
    def test_rows_match_reference(self, shop, pop, density):
        inst, ev, batch, partitions = self.batch(shop, pop, density)
        for i, p in enumerate(partitions):
            ref = reference_evaluation(inst, p, ev.cfg)
            assert ev.result(batch, i) == ref
            assert ev.to_fraction(batch.traffic_units[i]) == ref.traffic
            assert batch.violations[i] == ref.violations
            assert ev.to_fraction(batch.fitness_units[i]) == ref.fitness

    @pytest.mark.parametrize("shop", sorted(SWEEP_SHOPS))
    def test_each_word_mixes_both_kinds(self, shop):
        # at 90% kept, each of the first two 64-row words holds rows the
        # first sweep finishes and rows that need more sweeps; the m = 2
        # shop has no room for two cells of two machines, so there a word
        # mixes rows of one cell and rows settled without a sweep
        inst, ev, batch, partitions = self.batch(shop, 129, 0.9)
        assert (inst.machine_count, inst.max_cell_size) == {
            "m2": (2, 1), "fictive": (8, 2), "roomy": (12, 12)}[shop]
        assert any(e.fictive for e in ev.graph.edges) == (shop != "m2")
        rounds = [peel_rounds(p) for p in partitions]
        for word in (rounds[:64], rounds[64:128]):
            if shop == "m2":
                assert set(word) == {0, 1}
            else:
                assert min(word) <= 1 < max(word)
        for i, p in enumerate(partitions):
            assert ev.result(batch, i) == reference_evaluation(
                inst, p, ev.cfg)


class TestManySweeps:
    """Sparse masks leave many small cells, so the peel runs many rounds:
    at m = 130 with 2% to 20% of the edges kept, three words of rows
    (pop 129), SC and SN pairs, and rows in which machine 0 or the machine
    of highest degree (the peel's first seed) keeps no edge, every row
    equals the reference evaluation of its partition. So do the
    flagged rows of label batches on a near-tree shop and of sparse
    K = 70 (two signature words) part batches at m = 130, which go through
    the same peel."""

    @staticmethod
    def shop():
        parts = random_instance(random.Random(130), 130, max_parts=260,
                                constraints=False).parts
        return Instance(130, 6, parts, frozenset({(0, 7), (60, 61)}),
                        frozenset({(1, 2), (100, 129)}))

    @staticmethod
    def check(ev, batch, refs):
        for i, ref in enumerate(refs):
            assert ev.result(batch, i) == ref
            assert ev.to_fraction(batch.traffic_units[i]) == ref.traffic
            assert batch.violations[i] == ref.violations
            assert ev.to_fraction(batch.fitness_units[i]) == ref.fitness

    @pytest.mark.parametrize("density", [0.02, 0.05, 0.1, 0.2])
    def test_rows_match_reference(self, density):
        inst = self.shop()
        ev = PopulationEvaluator(inst)
        rng = np.random.default_rng(round(100 * density))
        keep = rng.random((129, ev.graph.edge_count)) < density
        degree = np.bincount(np.concatenate([ev.edge_u, ev.edge_v]))
        for machine in (0, degree.argmax()):
            at = (ev.edge_u == machine) | (ev.edge_v == machine)
            assert not keep[:, at].any(axis=1).all()
        batch = ev.evaluate_keeps(keep)
        partitions = [decode_partition(ev.graph, mask_from_bits(~row))
                      for row in keep]
        assert max(map(peel_rounds, partitions)) >= 2
        self.check(ev, batch, [reference_evaluation(inst, p, ev.cfg)
                               for p in partitions])

    def test_near_tree_label_rows(self):
        # E = 101 on 96 machines, a third of the edges fictive. Row i < 120
        # draws from i + 1 labels, so rows of few labels leave many cells;
        # the last nine rows, classes of 1 to 3 machines, keep fewer than
        # N = 3 edges and are not peeled
        inst = generate_instance(96, 48, 3, 3)
        ev = PopulationEvaluator(inst)
        labels = np.concatenate([
            random_label_matrix(random.Random(96), 96, 120),
            [np.arange(96) // (1 + i % 3) for i in range(9)]])
        refs = [reference_label_evaluation(inst, row, ev.cfg)
                for row in labels]
        flagged = flagged_rows(ev.graph, 3, labels.tolist())
        assert len(flagged) > 64 and max(flagged) < 120
        assert max(peel_rounds(refs[i].partition) for i in flagged) >= 10
        assert {ref.violations > 0 for ref in refs} == {False, True}
        self.check(ev, ev.evaluate_labels(labels), refs)

    @pytest.mark.parametrize("density", [0.02, 0.04])
    def test_sparse_wide_part_rows(self, density):
        # K = 70 parts of which a few are nonzero leave a few large
        # signature classes, whose kept edges split into many cells
        inst = self.shop()
        ev = PopulationEvaluator(inst)
        g = ev.graph
        basis = build_basis(g)
        population = random_parts_population(random.Random(70), 70,
                                             1 << 129, 40, density)
        refs = [reference_evaluation(
            inst, decode_chromosome(parts, basis, g), ev.cfg)
            for parts in population]
        assert sum(kept_edges(g, signatures(ch, 130)) >= 6
                   for ch in population) >= 30
        assert max(peel_rounds(ref.partition) for ref in refs) >= 15
        self.check(ev, ev.evaluate_parts(ev.pack_parts(population)), refs)


@functools.lru_cache(maxsize=None)
def shop_evaluator(m):
    """The evaluator of one generated m-machine shop, built once."""
    return PopulationEvaluator(generate_instance(m, 2 * m, 8, seed=m))


class TestEvaluatePartsRejectsMalformed:
    """pack_parts takes parts from outside the GA: anything but rows of
    one common length holding Python ints in [0, 2^(m-1) - 1] raises
    ValueError instead of being packed as some other chromosome."""

    @pytest.fixture
    def ev(self, five_machine_instance):
        return PopulationEvaluator(five_machine_instance)

    # m = 5: valid parts are 0..15
    @pytest.mark.parametrize(
        "part", [16, 31, 1 << 40, -1, np.int64(3), 3.0],
        ids=["2^4", "2^5-1", "2^40", "negative", "numpy-int64", "float"])
    def test_bad_part(self, ev, part):
        with pytest.raises(ValueError, match=r"Python ints in 0\.\.2\^4 - 1"):
            ev.pack_parts([(15, 0), (3, part)])

    @pytest.mark.parametrize("population", [[(1, 2, 3), (4,)], [()]],
                             ids=["unequal-rows", "empty-row"])
    def test_bad_row_lengths(self, ev, population):
        with pytest.raises(ValueError, match="one common, nonzero part"):
            ev.pack_parts(population)

    @pytest.mark.parametrize("m", [64, 65, 66, 129])
    def test_range_edges_on_wide_shops(self, m):
        # the top valid part passes on either side of a word boundary of
        # the packed parts; one more fails
        ev = shop_evaluator(m)
        top = (1 << (m - 1)) - 1
        words = ev.pack_parts([(top, 0)])
        assert ev.evaluate_parts(words).violations.shape == (1,)
        with pytest.raises(ValueError, match="Python ints"):
            ev.pack_parts([(top + 1, 0)])


class TestEvaluatePartsWordArrays:
    """evaluate_parts takes only the GA's (pop, K * W) uint64 word array:
    ``pack_parts`` builds it from Python int parts as an independent packer
    does, ``unpack_parts`` reads them back, and any other dtype, width or
    a bit at or above m - 1 is rejected."""

    @staticmethod
    def words(ev, chains):
        """Independent packer: part j in words j*W .. j*W+W-1, least
        significant first."""
        w = ev.part_words
        return np.array([[(p >> 64 * i) & (2 ** 64 - 1)
                          for p in ch for i in range(w)] for ch in chains],
                        dtype=np.uint64)

    @pytest.mark.parametrize("m", [5, 50, 65, 96, 130])
    def test_array_equals_parts(self, m):
        ev = PopulationEvaluator(generate_instance(m, 2 * m, 7, seed=m))
        rng = random.Random(m)
        chains = [tuple(rng.getrandbits(m - 1) if rng.random() < 0.6 else 0
                        for _ in range(4)) for _ in range(30)]
        words = self.words(ev, chains)
        assert np.array_equal(ev.pack_parts(chains), words)
        a = ev.evaluate_parts(words)
        b = ev.evaluate_parts(ev.pack_parts(chains))
        for field in ("traffic_units", "violations", "fitness_units",
                      "inside"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    @pytest.mark.parametrize("m", [5, 65, 66, 130])
    def test_bad_arrays(self, m):
        ev = shop_evaluator(m)
        w = ev.part_words
        good = np.zeros((3, 2 * w), dtype=np.uint64)
        assert ev.evaluate_parts(good).violations.shape == (3,)
        # a width that is no multiple of W exists only for W > 1
        widths = [good[:, :-1]] if w > 1 else []
        # rows of Python int parts go through pack_parts first
        for bad in (good.astype(np.int64), *widths,
                    np.zeros((3, 0), dtype=np.uint64),
                    np.zeros((0, 2 * w), dtype=np.uint64), good[0],
                    [(0, 0)] * 3):
            with pytest.raises(ValueError, match="part words must be a "
                                                 "uint64"):
                ev.evaluate_parts(bad)
        top = self.words(ev, [(0, (1 << (m - 1)) - 1)])
        assert ev.evaluate_parts(top).violations.shape == (1,)
        if m - 1 < 64 * w:  # at m = 65 every 64-bit word is a valid part
            above = self.words(ev, [(0, 1 << (m - 1))])
            with pytest.raises(ValueError,
                               match=rf"in 0\.\.2\^{m - 1} - 1"):
                ev.evaluate_parts(above)

    @pytest.mark.parametrize("m", [5, 64, 65, 66, 129])
    @given(data=st.data())
    def test_pack_unpack_round_trip(self, m, data):
        # parts on both sides of each 64-bit word boundary below 2^(m-1),
        # and at the top of the range
        ev = shop_evaluator(m)
        top = (1 << (m - 1)) - 1
        edges = [0, 1, top, top - 1] + [
            (1 << b) + d for b in range(64, m - 1, 64) for d in (-1, 0)]
        part = st.one_of(st.integers(0, top), st.sampled_from(edges))
        k = data.draw(st.integers(1, 5))
        rows = data.draw(st.lists(st.tuples(*[part] * k), min_size=1,
                                  max_size=6))
        words = ev.pack_parts(rows)
        assert np.array_equal(words, self.words(ev, rows))
        assert [ev.unpack_parts(row) for row in words] == rows


def reference_keys(rows, m):
    """Signature keys from Python ints: keys[s][v][i] has bit j - 64s set
    when part j of row i, 64s <= j < 64s + 64, has bit v set."""
    k = len(rows[0])
    return [[[sum((parts[j] >> v & 1) << j - 64 * s
                  for j in range(64 * s, min(k, 64 * s + 64)))
              for parts in rows] for v in range(m)]
            for s in range((k + 63) // 64)]


class TestSignatureKeys:
    """``_signatures`` turns part words into vertex-major (S, m, pop) keys
    by 8 x 8 bit-matrix transposes; every key equals its Python-int
    reference, across part counts that are no multiple of 8, part words
    that end exactly at vertex m - 2 (m = 64W + 1) and populations on both
    sides of 64."""

    @pytest.mark.parametrize("pop", [1, 7, 64, 65])
    @pytest.mark.parametrize("m", [2, 9, 63, 64, 65, 66, 129, 130])
    @pytest.mark.parametrize("k", [1, 3, 7, 8, 9, 16, 17, 24, 33, 64, 65,
                                   129])
    def test_keys_equal_reference(self, k, m, pop):
        ev = PopulationEvaluator(chain_shop([1] * (m - 1)))
        rng = random.Random(1000 * k + m)
        top = (1 << (m - 1)) - 1
        # the first row's only nonzero part is the last one, at the top of
        # the range; the others mix dense, sparse and zero parts
        rows = [(0,) * (k - 1) + (top,)] + [
            tuple(rng.getrandbits(m - 1) & rng.choice([top, rng.getrandbits(
                m - 1)]) if rng.random() < 0.8 else 0 for _ in range(k))
            for _ in range(pop - 1)]
        keys = ev._signatures(ev.pack_parts(rows))
        assert keys.dtype == np.min_scalar_type((1 << min(k, 64)) - 1)
        assert keys.shape == ((k + 63) // 64, m, pop)
        assert keys.astype(object).tolist() == reference_keys(rows, m)


def test_signature_transient_below_unpacked_bits():
    # m = 1024, K = 128, pop 64: unpacking one byte per bit held
    # pop * K * m bytes (8.4 MB); the transposes hold three arrays of
    # pop * K * m / 8 bytes (the bit matrices, the rounds' scratch and
    # the keys)
    m, k, pop = 1024, 128, 64
    ev = PopulationEvaluator(chain_shop([1] * (m - 1)))
    rng = np.random.default_rng(0)
    words = rng.integers(0, 2 ** 64, (pop, k * ev.part_words),
                         dtype=np.uint64) & np.tile(ev.part_mask, k)
    tracemalloc.start()
    try:
        keys = ev._signatures(words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert keys.shape == (2, m, pop)
    assert peak < 4 * pop * k * m // 8 < pop * k * m


class TestKeepsAndLabelsRejectMalformed:
    """evaluate_keeps takes only (pop >= 1, E) keep matrices and
    evaluate_labels only (pop >= 1, m) label matrices: any other shape
    raises ValueError instead of being evaluated as some other solution or
    failing on an index."""

    @pytest.fixture
    def ev(self):
        ev = PopulationEvaluator(generate_instance(5, 10, 2, seed=1))
        assert (ev.m, ev.graph.edge_count) == (5, 10)
        return ev

    @pytest.mark.parametrize("shape", [(1, 9), (1, 11), (0, 10)],
                             ids=["E-1", "E+1", "no-rows"])
    def test_bad_keep_shape(self, ev, shape):
        with pytest.raises(ValueError, match="keep matrix must be"):
            ev.evaluate_keeps(np.ones(shape, dtype=bool))

    @pytest.mark.parametrize("shape", [(1, 7), (1, 3), (0, 5)],
                             ids=["m+2", "m-2", "no-rows"])
    def test_bad_label_shape(self, ev, shape):
        with pytest.raises(ValueError, match="label matrix must be"):
            ev.evaluate_labels(np.zeros(shape, dtype=np.int64))


class TestLabelsMatchComponentsReference:
    """evaluate_labels and result, row by row, against the connected pieces
    that the edges between equal labels leave (``reference_label_evaluation``)
    on random label matrices. The fuzz is checked to contain label classes
    that are disconnected in the flow graph, classes larger than N that
    split into pieces both within and above N, split SC and united SN
    pairs, float labels that an int cast would merge, and labels of mixed
    types, which need only compare equal."""

    @staticmethod
    def check(inst, labels):
        ev = PopulationEvaluator(inst)
        batch = ev.evaluate_labels(labels)
        refs = [reference_label_evaluation(inst, row, ev.cfg)
                for row in labels]
        for i, ref in enumerate(refs):
            assert ev.result(batch, i) == ref
            assert ev.to_fraction(batch.traffic_units[i]) == ref.traffic
            assert batch.violations[i] == ref.violations
            assert ev.to_fraction(batch.fitness_units[i]) == ref.fitness
        return refs

    def test_random_label_matrices(self):
        seen = Counter()
        for seed in range(80):
            rng = random.Random(seed)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", InstanceWarning)
                inst = random_instance(rng, rng.randint(3, 14),
                                       max_parts=rng.randint(1, 16))
            m, n = inst.machine_count, inst.max_cell_size
            labels = random_label_matrix(rng, m, 24)
            refs = self.check(inst, labels)
            for row, ref in zip(labels, refs):
                cells = ref.partition.cells
                seen["disconnected"] += len(cells) > len(set(row.tolist()))
                sizes = Counter(row.tolist())
                for lab, size in sizes.items():
                    if size > n:
                        pieces = [len(c) for c in cells if row[c[0]] == lab]
                        seen["split_oversize"] += \
                            min(pieces) <= n < max(pieces)
                seen["sc_split"] += any(row[a] != row[b]
                                        for a, b in inst.cohabit)
                seen["sn_united"] += any(row[a] == row[b]
                                         for a, b in inst.separate)
        assert min(seen[case] for case in (
            "disconnected", "split_oversize", "sc_split", "sn_united")) >= 20

    def test_oversize_class_splits_into_pieces(self):
        # flow-graph components {0}, path 1-2-3, edge 4-5 (also a separated
        # pair) and the cohabiting pair 6-7, linked by the fictive edges
        # 0-1, 0-4 and 0-6. One label for machines 1..5, a class of 5 > N = 2
        # that splits into {1, 2, 3} (oversize) and {4, 5} (united SN pair)
        inst = make_instance(8, 2, [(3, (2, 3, 4)), (2, (5, 6))],
                             cohabit=[(7, 8)], separate=[(5, 6)])
        [split, joined] = self.check(inst, np.array([
            [9, 0, 0, 0, 0, 0, 1, 2], [9, 0, 0, 0, 0, 0, 1, 1]]))
        assert split.partition.cells == ((0,), (1, 2, 3), (4, 5), (6,), (7,))
        assert (split.traffic, split.violations) == (0, 3)
        assert (joined.traffic, joined.violations) == (0, 2)

    def test_float_labels_are_compared_as_given(self):
        merged = 0
        for seed in range(30):
            rng = random.Random(100 + seed)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", InstanceWarning)
                inst = random_instance(rng, rng.randint(4, 12), max_parts=12)
            labels = random_label_matrix(rng, inst.machine_count, 16) / 4.0
            self.check(inst, labels)
            ev = PopulationEvaluator(inst)
            as_float = ev.evaluate_labels(labels)
            as_int = ev.evaluate_labels(labels.astype(np.int64))
            merged += int((as_float.inside != as_int.inside).any())
        assert merged >= 10

    def test_labels_need_only_compare_equal(self):
        # str and int labels cannot be sorted together; mixed, they score
        # exactly as the integer labels they stand for
        rng = random.Random(99)
        inst = random_instance(rng, 10, max_parts=20, max_cell_size=3)
        labels = random_label_matrix(rng, 10, 40)
        mixed = np.array([[v if v % 2 else str(v) for v in row]
                          for row in labels.tolist()], dtype=object)
        ev = PopulationEvaluator(inst)
        as_int, as_mixed = ev.evaluate_labels(labels), \
            ev.evaluate_labels(mixed)
        for name in ("traffic_units", "violations", "fitness_units",
                     "inside"):
            assert (getattr(as_int, name) == getattr(as_mixed, name)).all()
        self.check(inst, labels)


def chain_shop(weights, max_cell_size=3, cohabit=(), separate=()):
    """Machines 1..len(weights) + 1 in a chain whose edge i weighs
    ``weights[i]`` units (scale 1): E = len(weights)."""
    return make_instance(len(weights) + 1, max_cell_size,
                         [(w, (i + 1, i + 2)) for i, w in enumerate(weights)],
                         cohabit, separate)


def prime_shop():
    """12 machines whose volumes have prime denominators near 10^6: the
    fitness range exceeds int64, so the units are Python ints."""
    primes = [1000003, 1000033, 1000037, 1000039]
    routings = [(F(7 * i + 3, p), (i + 1, (i + 2) % 12 + 1, i % 12 + 1))
                for i, p in enumerate(primes * 3)]
    return make_instance(12, 4, routings, cohabit=[(1, 2)],
                         separate=[(3, 4)])


def dense_shop():
    """m = 40 with about 650 edges, SC and SN pairs: a batch of 300 rows
    spans at least three blocks of the score's product."""
    rng = random.Random(40)
    routings = [(rng.randint(1, 9), tuple(rng.sample(range(1, 41), 6)))
                for _ in range(200)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InstanceWarning)
        return make_instance(40, 5, routings, cohabit=[(1, 2), (3, 4)],
                             separate=[(5, 6)])


# b = 53 - E.bit_length() = 49 at E = 15: fifteen digits of 2^49 - 1 sum
# to just below 2^53, and a weight of 2^49 takes a second limb
_B15 = 1 << 49
EXACT_SHOPS = {
    "digits 2^b - 1": lambda: chain_shop([_B15 - 1] * 15, 4, [(1, 2)],
                                         [(3, 4)]),
    "digits 2^b": lambda: chain_shop([_B15, _B15 - 1] * 7 + [_B15], 4,
                                     [(5, 6)], [(7, 8)]),
    "int64 two limbs": lambda: chain_shop(
        [(1 << 54) + 7919 * i for i in range(8)], 3),
    "object primes": prime_shop,
    "object beyond float": lambda: make_instance(
        4, 2, [(F(4 * 10 ** 307), (1, 2, 3, 4)), (1, (2, 3))]),
    "no flow": lambda: make_instance(5, 2, [(0, (1, 2, 3))],
                                     cohabit=[(1, 3)], separate=[(2, 4)]),
    "no parts": lambda: Instance(5, 1, ()),
    "three blocks": dense_shop,
}


def reference_fields(ev, refs):
    """The batch fields the evaluator must return for rows whose exact
    evaluations are ``refs``: traffic and fitness in its units and unit
    dtype, int64 violations, and the (E, pop) edges with both ends in one
    cell."""
    g = ev.graph
    labels = [ref.partition.labels(g.machine_count) for ref in refs]
    return {
        "traffic_units": np.array([int(ref.traffic * ev.scale)
                                   for ref in refs], dtype=ev.units_dtype),
        "violations": np.array([ref.violations for ref in refs],
                               dtype=np.int64),
        "fitness_units": np.array([int(ref.fitness * ev.scale)
                                   for ref in refs], dtype=ev.units_dtype),
        "inside": np.array([[row[u] == row[v] for row in labels]
                            for u, v in zip(g.u, g.v)],
                           dtype=bool).reshape(g.edge_count, len(refs)),
    }


class TestExactScoreProduct:
    """The score sums the edges inside cells with one float64 product,
    over blocks of edges, in L base-2^b limbs with b = 53 - E.bit_length().
    On digits at 2^b - 1 and 2^b, two int64 limbs, Python-int units, shops
    without flow and a batch of three blocks, every field of every parts,
    label and keep batch equals the scalar reference in dtype, shape and
    bytes (values and Python ints for object units), and so does every
    result, at any BLAS thread count."""

    LIMBS = {"digits 2^b - 1": 1, "digits 2^b": 2, "int64 two limbs": 2,
             "object primes": 2, "object beyond float": 21, "no flow": 1,
             "no parts": 1, "three blocks": 1}

    @staticmethod
    def check(batch, ev, refs):
        for name, want in reference_fields(ev, refs).items():
            got = getattr(batch, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            if got.dtype == object:
                assert all(type(x) is int for x in got.tolist()), name
                assert got.tolist() == want.tolist(), name
            else:
                assert got.tobytes() == want.tobytes(), name
        for i, ref in enumerate(refs):
            assert ev.result(batch, i) == ref

    @pytest.mark.parametrize("shop", sorted(EXACT_SHOPS))
    def test_batches_equal_reference(self, shop):
        inst = EXACT_SHOPS[shop]()
        ev = PopulationEvaluator(inst)
        g, cfg, m = ev.graph, ev.cfg, inst.machine_count
        e = g.edge_count
        assert len(ev._rows) - 3 == self.LIMBS[shop]
        assert (ev.units_dtype is object) == shop.startswith("object")
        pop = 300 if shop == "three blocks" else 40
        if shop == "three blocks":
            assert e > 2 * (evaluation._BLOCK // pop)
        rng = random.Random(shop)
        # the one class of all machines keeps every edge, at the largest
        # sums; dense parts and distinct labels keep few or none
        k = compute_k(m, inst.max_cell_size)
        parts = random_parts_population(rng, k, 1 << (m - 1), pop - 2, 0.5)
        parts += [(0,) * k, ((1 << (m - 1)) - 1,) * k]
        labels = np.concatenate([random_label_matrix(rng, m, pop - 2),
                                 np.zeros((1, m), dtype=int),
                                 np.arange(m)[None]])
        keep = np.random.default_rng(e).random((pop, e)) < 0.7
        keep[0], keep[1] = True, False
        basis = build_basis(g)
        self.check(ev.evaluate_parts(ev.pack_parts(parts)), ev, [
            reference_evaluation(inst, decode_chromosome(ch, basis, g), cfg)
            for ch in parts])
        self.check(ev.evaluate_labels(labels), ev, [
            reference_label_evaluation(inst, row, cfg) for row in labels])
        self.check(ev.evaluate_keeps(keep), ev, [
            reference_evaluation(
                inst, decode_partition(g, mask_from_bits(~row)), cfg)
            for row in keep])


def test_batch_wider_than_one_block_grows_the_cast_buffer():
    # pop 2^16 + 5 rows: a block of one edge holds more entries than the
    # evaluator's float64 buffer, which grows to one edge; the batch equals
    # its two halves scored apart, field by field
    ev = PopulationEvaluator(chain_shop([1, 2, 3]))
    labels = np.random.default_rng(0).integers(0, 3, ((1 << 16) + 5, 4))
    whole = ev.evaluate_labels(labels)
    assert len(ev._cast) == len(labels)
    halves = [ev.evaluate_labels(part) for part in np.array_split(labels, 2)]
    for name, got in vars(whole).items():
        want = np.concatenate([getattr(h, name) for h in halves], axis=-1)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def complete_shop(m):
    """Every pair of m machines routed once: the complete flow graph,
    E = m(m - 1) / 2."""
    return Instance(m, 8, tuple(
        Part(Fraction(1 + (a * b) % 7), (a, b))
        for a in range(m) for b in range(a + 1, m)))


def test_score_product_transient_within_one_block(monkeypatch):
    # E = 19,900 and pop 200: a whole-matrix product would cast the
    # (E, pop) bool matrix to a 32 MB float64 temporary; the blocked one
    # holds one block of at most 2^16 float64 entries (512 KB) at a time,
    # plus the (3 + L, pop) sums
    ev = PopulationEvaluator(complete_shop(200))
    keep = np.random.default_rng(0).random((200, ev.graph.edge_count)) < 0.5
    product, peaks = ev._sums, []

    def traced(inside):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        sums = product(inside)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return sums

    monkeypatch.setattr(ev, "_sums", traced)
    tracemalloc.start()
    try:
        batch = ev.evaluate_keeps(keep)
    finally:
        tracemalloc.stop()
    assert batch.inside.shape == (19900, 200)
    assert len(peaks) == 1 and peaks[0] <= 8 * evaluation._BLOCK + 32 * 1024
