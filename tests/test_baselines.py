"""Edge-encoding GA, k-means clustering, and the exhaustive oracle."""

import copy
import itertools
import random
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from cellform import (GAParams, Instance, InstanceWarning, Part,
                      PopulationEvaluator, baselines, build_graph, compute_k,
                      decode_partition, generate_instance, run_ega, run_ga,
                      run_multikmeans, solve)
from cellform.baselines import _lloyd, exhaustive_oracle
from cellform.bench import BENCH_METHODS
from cellform.ga import make_rng
from helpers import (boundary_mask, brute_force_optimum, dense_traffic,
                     instances, make_instance, partition_from_labels,
                     partition_traffic, random_instance,
                     reference_kmeans_labels, reference_lloyd,
                     reference_multikmeans)


CHAIN_ROUTINGS = [(4, (1, 2)), (1, (2, 3)), (3, (3, 4))]

# volumes over four primes near 10^6: the fitness range in weight units
# exceeds int64, so the evaluator's unit arrays hold Python ints
PRIME_SHOP = make_instance(
    5, 2, [(Fraction(1, 999983), (1, 2, 3)), (Fraction(1, 999979), (3, 4, 5)),
           (Fraction(1, 999961), (5, 1, 4)), (Fraction(1, 999959), (2, 4))],
    separate=[(1, 5)])


class TestRunEGA:
    def test_deterministic(self, five_machine_instance):
        params = GAParams(20, 15, seed=3, variant="cga")
        a = run_ega(five_machine_instance, params)
        b = run_ega(five_machine_instance, params)
        assert a.best_history == b.best_history
        assert a.best_chromosome == b.best_chromosome
        assert a.best_evaluation == b.best_evaluation

    def test_history_monotone_and_sized(self, five_machine_instance):
        res = run_ega(five_machine_instance,
                      GAParams(20, 25, seed=1, variant="cga"))
        assert len(res.best_history) == 25
        assert all(b >= a for a, b in
                   zip(res.best_history, res.best_history[1:]))

    def test_finds_five_machine_optimum(self, five_machine_instance):
        res = run_ega(five_machine_instance,
                      GAParams(30, 60, seed=0, variant="cga"))
        assert res.feasible_found
        assert res.best_evaluation.traffic == 6

    def test_matches_oracle_on_m6(self):
        inst = generate_instance(6, 18, 3, 8, seed=7)
        oracle = exhaustive_oracle(inst)
        res = run_ega(inst, GAParams(100, 100, seed=0, variant="cga"))
        assert res.feasible_found
        assert res.best_evaluation.traffic == oracle.traffic

    def test_traffic_measured_on_decoded_partition(self,
                                                   five_machine_instance):
        res = run_ega(five_machine_instance,
                      GAParams(16, 10, seed=5, variant="cga"))
        cells = res.best_evaluation.partition.cells
        assert partition_traffic(five_machine_instance, cells) == \
            res.best_evaluation.traffic
        # the best chromosome is the int edge mask decode_partition takes
        assert decode_partition(build_graph(five_machine_instance),
                                res.best_chromosome) == \
            res.best_evaluation.partition

    def test_pigeonhole(self):
        # two machines, one edge: only 2 distinct edge masks exist
        inst = make_instance(2, 2, [(1, (1, 2))])
        with pytest.raises(ValueError, match="exceeds the 2 distinct"):
            run_ega(inst, GAParams(5, 1, variant="cga"))

    def test_infeasible_instance_flagged(self):
        with pytest.warns(InstanceWarning):
            inst = make_instance(4, 2, [(1, (1, 2)), (1, (3, 4))],
                                 cohabit=[(1, 2), (2, 3)])
        res = run_ega(inst, GAParams(6, 10, seed=2, variant="cga"))
        assert not res.feasible_found

    def test_zero_generations(self, five_machine_instance):
        res = run_ega(five_machine_instance,
                      GAParams(10, 0, seed=1, variant="cga"))
        assert res.best_history == []
        best = res.best_chromosome
        assert type(best) is int
        assert 0 <= best < 2 ** build_graph(five_machine_instance).edge_count


class TestRunMultikmeans:
    def test_recovers_separable_clusters(self):
        # two volume-5 triangles with no cross traffic
        inst = make_instance(6, 3, [(5, (1, 2, 3, 1)), (5, (4, 5, 6, 4))])
        res = run_multikmeans(inst, restarts=2, seed=0)
        assert res is not None
        assert res.traffic == 0
        assert res.partition.cells == ((0, 1, 2), (3, 4, 5))
        assert res.feasible

    def test_deterministic(self, five_machine_instance):
        a = run_multikmeans(five_machine_instance, restarts=3, seed=4)
        b = run_multikmeans(five_machine_instance, restarts=3, seed=4)
        assert a == b

    def test_cells_cover_all_machines(self, five_machine_instance):
        res = run_multikmeans(five_machine_instance, restarts=2, seed=1)
        assert res is not None
        covered = sorted(v for cell in res.partition.cells for v in cell)
        assert covered == list(range(5))

    def test_points_are_exact_weights_rounded_once(self, monkeypatch):
        # units past 2^53 over a scale of 7: float64(units) / 7 rounds
        # twice, which misses float(weight) on all five of these edges
        rng = random.Random(8)
        routings = [(1, 2), (2, 3), (3, 4), (1, 4), (2, 4)]
        inst = make_instance(4, 2, [
            (Fraction(rng.getrandbits(62) | 1 << 61, 7), r)
            for r in routings])
        seen = []

        def spy(points, gram, sq_norms, k, rng):
            seen.append((points.copy(), gram))
            return _lloyd(points, gram, sq_norms, k, rng)

        monkeypatch.setattr(baselines, "_lloyd", spy)
        run_multikmeans(inst, restarts=2)
        # one Gram matrix serves every k and restart of the call
        assert len({id(gram) for _, gram in seen}) == 1
        g = build_graph(inst)
        assert g.scale == 7 and min(g.units) > 2 ** 53
        expected = np.zeros((4, 4))
        for e in g.edges:
            expected[e.u, e.v] = expected[e.v, e.u] = float(e.weight)
        expected = np.ldexp(expected, -np.frexp(expected.max())[1])
        assert len(seen) == 4 and all(np.array_equal(p, expected)
                                      for p, _ in seen)
        assert np.array_equal(seen[0][1], expected @ expected.T)
        rounded_twice = np.array(g.units, dtype=np.float64) / g.scale
        assert (rounded_twice != [float(e.weight) for e in g.edges]).all()

    def test_restarts_validation(self, five_machine_instance):
        with pytest.raises(ValueError, match="restarts"):
            run_multikmeans(five_machine_instance, restarts=0)

    def test_unit_cell_size_yields_none(self):
        # with max cell size 1 the k range [m, m-1] is empty
        inst = make_instance(3, 1, [(1, (1, 2)), (1, (2, 3))])
        assert run_multikmeans(inst) is None

    def test_infeasible_instance_yields_none(self):
        with pytest.warns(InstanceWarning):
            inst = make_instance(4, 2, [(1, (1, 2))],
                                 cohabit=[(1, 2), (2, 3)])
        assert run_multikmeans(inst, restarts=3, seed=0) is None

    def test_negative_seed_draws_its_own_centroids(self, monkeypatch):
        # the first centroids of seeds 5 and -5 differ: like the GAs,
        # k-means seeds a generator on the sign as well as on |seed|
        inst = generate_instance(20, 40, 5, seed=2)
        firsts = {}

        def spy(points, gram, sq_norms, k, rng):
            firsts.setdefault(seed, copy.deepcopy(rng).choice(
                len(points), k, replace=False))
            return _lloyd(points, gram, sq_norms, k, rng)

        monkeypatch.setattr(baselines, "_lloyd", spy)
        for seed in (5, -5):
            run_multikmeans(inst, seed=seed)
        assert not np.array_equal(firsts[5], firsts[-5])

    def test_first_met_wins_ties_across_restarts(self, monkeypatch):
        # a 4-cycle of unit flows: cells {0,1},{2,3} (restart 0) and
        # {0,3},{1,2} (restart 1) both cut two edges; restart 0's is kept
        inst = make_instance(4, 2, [(1, (1, 2, 3, 4, 1))])
        draws = iter([[0, 0, 1, 1], [0, 1, 2, 2], [0, 1, 1, 0], [0, 1, 2, 2]])
        monkeypatch.setattr(baselines, "_lloyd",
                            lambda *args: np.array(next(draws)))
        res = run_multikmeans(inst, restarts=2)
        assert (res.partition.cells, res.traffic) == (((0, 1), (2, 3)), 2)

    def test_memory_does_not_grow_with_restarts(self):
        # each restart's clusterings are scored as they are drawn, so the
        # peak does not depend on the number of restarts
        inst = generate_instance(40, 80, 5, seed=1)
        run_multikmeans(inst, restarts=1, seed=0)
        peaks = {}
        for restarts in (2, 20):
            tracemalloc.start()
            try:
                run_multikmeans(inst, restarts=restarts, seed=0)
                peaks[restarts] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[20] < 1.25 * peaks[2]

    def test_never_beats_oracle(self):
        rng = random.Random(31)
        for _ in range(10):
            inst = random_instance(rng, rng.randint(4, 6), constraints=False)
            oracle = exhaustive_oracle(inst)
            res = run_multikmeans(inst, restarts=2, seed=rng.randint(0, 99))
            if res is not None:
                assert res.traffic >= oracle.traffic


def _kmeans_shops():
    """Seeded shops, m from 20 to 100, fractional volumes, SC/SN pairs."""
    rng = random.Random(53)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InstanceWarning)
        return [random_instance(rng, m, max_parts=2 * m,
                                max_cell_size=rng.randint(3, 9))
                for m in (20, 37, 52, 64, 81, 100)]


@pytest.fixture(scope="module")
def kmeans_runs():
    """Each of ``_kmeans_shops`` solved once for the module: with
    ``restarts = 1 + seed % 2``, the result of ``run_multikmeans(inst,
    restarts, seed)``, every assignment its ``_lloyd`` returned (restarts
    outer, k ascending) and the reference labels of the same draws
    (``reference_kmeans_labels``); and the reference events of every
    shop's first restart."""
    events = Counter()
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        for seed, inst in enumerate(_kmeans_shops()):
            assigns = []

            def spy(*args):
                assigns.append(_lloyd(*args))
                return assigns[-1]

            mp.setattr(baselines, "_lloyd", spy)
            restarts = 1 + seed % 2
            result = run_multikmeans(inst, restarts, seed)
            runs.append((inst, restarts, result, assigns,
                         reference_kmeans_labels(inst, restarts, seed,
                                                 events)))
    return runs, events


class TestKmeansMatchesReference:
    """The O(m k) distances and the batched scoring change no result."""

    def test_lloyd_assignments_identical(self, kmeans_runs):
        saw_oversize = saw_disconnected = False
        runs, events = kmeans_runs
        for inst, restarts, _, assigns, labels in runs:
            m = inst.machine_count
            g = build_graph(inst)
            ks = range(compute_k(m, inst.max_cell_size), m)
            assert len(assigns) == restarts * len(ks)
            for assign, expected in zip(assigns, itertools.chain(*labels)):
                assert np.array_equal(assign, expected)
            for assign in assigns[:len(ks)]:
                saw_oversize |= bool(
                    (np.bincount(assign) > inst.max_cell_size).any())
                clusters = partition_from_labels(assign)
                pieces = decode_partition(g, boundary_mask(g, clusters))
                saw_disconnected |= pieces.cell_count > clusters.cell_count
        # the shops exercise both cases the decoded scoring must handle,
        # and every branch of the kernel-form loop: rows settled on exact
        # differences between tied centroids, re-seeded empty clusters and
        # a cluster that keeps its centroid through an update
        assert saw_oversize and saw_disconnected
        assert events["tie"] and events["reseed"] and events["unfilled"]

    def test_results_identical(self, kmeans_runs):
        runs, _ = kmeans_runs
        assert any(inst.cohabit for inst, *_ in runs)
        assert any(inst.separate for inst, *_ in runs)
        for seed, (inst, restarts, result, _, labels) in enumerate(runs):
            assert restarts == 1 + seed % 2
            assert result == reference_multikmeans(inst, labels)

    @pytest.mark.parametrize("shape", ["no parts", "star", "zero chain",
                                       "unused machines"])
    def test_shops_with_repeated_rows(self, shape, monkeypatch):
        # shops whose traffic rows repeat: identical rows tie on identical
        # centroids at every k, so close calls are settled on exact
        # differences and empty clusters re-seeded over and over; at
        # m = 16 the reference solves each in well under a second. Two of
        # the shapes have no feasible clustering, so every assignment is
        # compared as well as the result
        m, n = 16, 4
        parts = {
            "no parts": (),
            "star": tuple(Part(1, (0, i)) for i in range(1, m)),
            "zero chain": tuple(Part(0, (i, i + 1)) for i in range(m - 1)),
            "unused machines": generate_instance(8, 16, 4, 4, seed=1).parts,
        }[shape]
        inst = Instance(m, n, parts)
        assigns = []

        def spy(*args):
            assigns.append(_lloyd(*args))
            return assigns[-1]

        monkeypatch.setattr(baselines, "_lloyd", spy)
        events = Counter()
        for restarts in (1, 2):
            assigns.clear()
            result = run_multikmeans(inst, restarts, restarts)
            labels = reference_kmeans_labels(inst, restarts, restarts, events)
            expected = list(itertools.chain(*labels))
            assert len(assigns) == len(expected)
            assert all(map(np.array_equal, assigns, expected))
            assert result == reference_multikmeans(inst, labels)
        assert events["tie"] and events["reseed"]

    def test_lloyd_on_small_grids(self):
        # square point sets on a few integer levels, with zeros: duplicate
        # points, exact ties and empty clusters at every k up to m. The
        # Gram matrix is also perturbed by a relative 1e-12, far above
        # any BLAS rounding, and must not move a single assignment
        rng = np.random.default_rng(5)
        events = Counter()
        with np.errstate(all="raise"):
            for trial in range(3000):
                m = int(rng.integers(3, 25))
                points = rng.integers(0, rng.integers(2, 5), (m, m)) * (
                    rng.random((m, m)) < rng.random())
                points = points.astype(float)
                gram, sq_norms = points @ points.T, (points ** 2).sum(axis=1)
                noisy = gram * (1 + 1e-12 * rng.standard_normal((m, m)))
                k = int(rng.integers(1, m + 1))
                expected = reference_lloyd(points, k, make_rng(trial), events)
                for g in (gram, noisy):
                    assert np.array_equal(
                        _lloyd(points, g, sq_norms, k, make_rng(trial)),
                        expected)
        assert events["tie"] and events["reseed"] and events["unfilled"]

    def test_lloyd_loop_multiplies_no_matrices(self):
        # every matrix product of the loop would pass through one of its
        # array arguments; none does
        products = []

        class Watched(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *args, **kwargs):
                if ufunc is np.matmul:
                    products.append(ufunc)
                args = [a.view(np.ndarray) if isinstance(a, Watched) else a
                        for a in args]
                out = kwargs.get("out")
                if out:
                    kwargs["out"] = tuple(
                        o.view(np.ndarray) if isinstance(o, Watched) else o
                        for o in out)
                return getattr(ufunc, method)(*args, **kwargs)

            def __array_function__(self, func, types, args, kwargs):
                if func in (np.dot, np.vdot, np.inner, np.tensordot,
                            np.einsum, np.matmul):
                    products.append(func)
                return super().__array_function__(func, types, args, kwargs)

        inst = _kmeans_shops()[2]
        points = dense_traffic(inst)
        gram, sq_norms = points @ points.T, (points ** 2).sum(axis=1)
        m = inst.machine_count
        for k in range(compute_k(m, inst.max_cell_size), m):
            assign = _lloyd(points.view(Watched), gram.view(Watched),
                            sq_norms.view(Watched), k, make_rng(k))
            assert np.array_equal(
                np.asarray(assign), _lloyd(points, gram, sq_norms, k,
                                           make_rng(k)))
        assert not products


class TestExhaustiveOracle:
    def test_chain_golden(self):
        inst = make_instance(4, 2, CHAIN_ROUTINGS)
        res = exhaustive_oracle(inst)
        assert res.traffic == 1
        assert res.partition.cells == ((0, 1), (2, 3))
        assert res.feasible
        assert res.violations == 0

    def test_five_machine_golden(self, five_machine_instance):
        res = exhaustive_oracle(five_machine_instance)
        assert res.traffic == 6
        assert res.feasible
        assert partition_traffic(five_machine_instance,
                                 res.partition.cells) == 6

    def test_unconstrained_single_cell(self):
        inst = make_instance(4, 4, [(2, (1, 2, 3, 4, 1))])
        res = exhaustive_oracle(inst)
        assert res.traffic == 0
        assert res.partition.cell_count == 1

    def test_all_singletons_cut_everything(self):
        inst = make_instance(3, 1, [(1, (1, 2)), (1, (2, 3)), (1, (1, 3))],
                             separate=[(1, 2), (1, 3), (2, 3)])
        res = exhaustive_oracle(inst)
        assert res.traffic == 3
        assert res.partition.cells == ((0,), (1,), (2,))

    def test_separation_pair_changes_optimum(self):
        inst = make_instance(4, 2, CHAIN_ROUTINGS, separate=[(1, 2)])
        res = exhaustive_oracle(inst)
        assert res.traffic == 5
        assert res.partition.cells == ((0,), (1,), (2, 3))

    def test_cohabit_pair_changes_optimum(self):
        inst = make_instance(4, 2, CHAIN_ROUTINGS, cohabit=[(2, 3)])
        res = exhaustive_oracle(inst)
        assert res.traffic == 7
        assert any(set(cell) >= {1, 2} for cell in res.partition.cells)

    def test_infeasible_returns_none(self):
        with pytest.warns(InstanceWarning):
            inst = make_instance(4, 2, [(1, (1, 2))],
                                 cohabit=[(1, 2), (2, 3)])
        assert exhaustive_oracle(inst) is None

    def test_guard(self):
        inst = generate_instance(13, 5, 4, seed=0)
        with pytest.raises(ValueError, match="exhaustive-search guard"):
            exhaustive_oracle(inst)

    def test_matches_brute_force_fuzz(self):
        rng = random.Random(33)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InstanceWarning)
            for _ in range(40):
                inst = random_instance(rng, rng.randint(3, 6))
                res = exhaustive_oracle(inst)
                best_traffic, best_cells = brute_force_optimum(inst)
                if best_traffic is None:
                    assert res is None
                else:
                    assert res is not None
                    assert res.traffic == best_traffic
                    assert res.feasible
                    assert partition_traffic(inst, res.partition.cells) == \
                        best_traffic

    def test_traffic_is_fraction(self, five_machine_instance):
        res = exhaustive_oracle(five_machine_instance)
        assert isinstance(res.traffic, Fraction)

    def test_prime_shop_units_exceed_int64(self):
        assert PopulationEvaluator(PRIME_SHOP).units_dtype is object


@given(instances(2, 7))
@example(PRIME_SHOP)
def test_oracle_matches_brute_force_property(inst):
    # the oracle's pruned search on integer weight units finds the traffic
    # of a full, unpruned enumeration in Fractions
    res = exhaustive_oracle(inst)
    best_traffic, _ = brute_force_optimum(inst)
    if best_traffic is None:
        assert res is None
    else:
        assert res.feasible and res.traffic == best_traffic
        assert partition_traffic(inst, res.partition.cells) == best_traffic


class TestHeuristicsAgainstOracle:
    def test_no_method_beats_the_oracle(self):
        rng = random.Random(35)
        for trial in range(8):
            inst = random_instance(rng, rng.randint(4, 6),
                                   constraints=False)
            oracle = exhaustive_oracle(inst)
            seed = 100 + trial
            ga = run_ga(inst, GAParams(20, 15, seed=seed, variant="scga"))
            if ga.feasible_found:
                assert ga.best_evaluation.traffic >= oracle.traffic
            ega = run_ega(inst, GAParams(16, 15, seed=seed, variant="cga"))
            if ega.feasible_found:
                assert ega.best_evaluation.traffic >= oracle.traffic
            mk = run_multikmeans(inst, restarts=1, seed=seed)
            if mk is not None:
                assert mk.traffic >= oracle.traffic


@given(instances(4, 7), st.integers(0, 1000))
def test_oracle_bounds_every_heuristic(inst, seed):
    # pop 8 fits every encoding from m = 4 up: 8 cut values per part, and
    # the connected graph has at least m - 1 = 3 edges
    oracle = exhaustive_oracle(inst)
    for method in BENCH_METHODS:
        ev, _ = solve(inst, method, seed, population_size=8, generations=5)
        if ev is not None and ev.feasible:
            assert oracle is not None
            assert ev.traffic >= oracle.traffic
