"""Traffic accumulation and flow-graph construction."""

import random
import warnings
from fractions import Fraction

import pytest

from cellform import (Instance, InstanceError, InstanceWarning, Part,
                      build_graph, compute_traffic, parse_instance,
                      serialize_instance)
from cellform.instance import MAX_SCALE
from helpers import dense_traffic, make_instance, random_instance, \
    total_weight


class TestComputeTraffic:
    def test_single_transition(self):
        t = compute_traffic(make_instance(2, 1, [(5, (1, 2))]))
        assert t == {(0, 1): Fraction(5)}

    def test_revisit_counts_twice(self):
        # routing 1-2-1 with volume 2: two adjacent occurrences, each x2
        t = compute_traffic(make_instance(2, 1, [(2, (1, 2, 1))]))
        assert t[0, 1] == 4

    def test_direction_ignored(self):
        t = compute_traffic(make_instance(2, 1, [(3, (1, 2)), (4, (2, 1))]))
        assert t == {(0, 1): 7}

    def test_diagonal_and_absent_pairs_zero(self):
        inst = make_instance(3, 1, [(5, (1, 2))])
        assert list(compute_traffic(inst)) == [(0, 1)]
        dense = dense_traffic(inst)
        assert dense[1, 1] == dense[0, 2] == 0

    def test_zero_volume_contributes_nothing(self):
        t = compute_traffic(make_instance(2, 1, [(0, (1, 2))]))
        assert t == {}

    def test_fraction_volumes_exact(self):
        t = compute_traffic(
            make_instance(2, 1, [(Fraction(1, 2), (1, 2)),
                                 (Fraction(1, 3), (2, 1))]))
        assert t == {(0, 1): Fraction(5, 6)}

    def test_nonzero_sorted_and_dense_symmetric(self):
        inst = make_instance(4, 2, [(1, (3, 4)), (2, (1, 2)), (3, (2, 3))])
        t = compute_traffic(inst)
        assert list(t.items()) == [((0, 1), Fraction(2)),
                                   ((1, 2), Fraction(3)),
                                   ((2, 3), Fraction(1))]
        dense = dense_traffic(inst)
        assert (dense == dense.T).all() and not dense.diagonal().any()

    def test_matches_per_step_fractions_fuzz(self):
        # integer units against summing one Fraction per routing step, on
        # volumes whose denominators mix primes, powers and composites
        rng = random.Random(321)
        denominators = [1, 2, 3, 4, 6, 7, 9, 10, 12, 25, 49, 97, 1000003]
        for _ in range(200):
            m = rng.randint(2, 12)
            parts = []
            for _ in range(rng.randint(0, 15)):
                routing = [rng.randrange(m)]
                for _ in range(rng.randint(1, 7)):
                    step = rng.randrange(m - 1)
                    routing.append(step + (step >= routing[-1]))
                volume = Fraction(rng.randint(0, 40), rng.choice(denominators))
                parts.append(Part(volume, tuple(routing)))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", InstanceWarning)
                inst = Instance(m, m, tuple(parts))
            expected = {}
            for part in parts:
                for a, b in zip(part.routing, part.routing[1:]):
                    key = (min(a, b), max(a, b))
                    expected[key] = expected.get(key, Fraction(0)) \
                        + part.volume
            got = list(compute_traffic(inst).items())
            assert got == sorted((k, v) for k, v in expected.items() if v)
            assert all(type(v) is Fraction for _, v in got)


class TestBuildGraph:
    def test_five_machine_golden(self, five_machine_graph):
        g = five_machine_graph
        assert g.machine_count == 5
        assert g.edge_count == 8
        assert [(e.u, e.v) for e in g.edges] == [
            (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 4), (3, 4)]
        assert all(e.weight == 1 for e in g.edges)
        assert not any(e.fictive or e.in_sc or e.in_sn for e in g.edges)
        assert total_weight(g) == 8

    def test_single_edge_no_fictive(self):
        g = build_graph(make_instance(2, 1, [(5, (1, 2))]))
        assert g.edge_count == 1
        e = g.edges[0]
        assert (e.u, e.v, e.weight, e.fictive) == (0, 1, Fraction(5), False)

    def test_fictive_bridges_two_components(self):
        # components {1,2} and {3,4}: lowest vertices 1 and 3 get linked
        g = build_graph(make_instance(4, 2, [(3, (1, 2)), (2, (3, 4))]))
        assert [(e.u, e.v, e.weight, e.fictive) for e in g.edges] == [
            (0, 1, Fraction(3), False),
            (0, 2, Fraction(0), True),
            (2, 3, Fraction(2), False)]

    def test_fictive_star_to_first_component(self):
        # isolated machines 3 and 4 both link to machine 1's component
        g = build_graph(make_instance(4, 2, [(1, (1, 2))]))
        fictive = [(e.u, e.v) for e in g.edges if e.fictive]
        assert fictive == [(0, 2), (0, 3)]
        assert all(e.weight == 0 for e in g.edges if e.fictive)

    def test_sn_pair_without_traffic_becomes_edge(self):
        g = build_graph(make_instance(3, 1, [(4, (1, 2))],
                                      separate=[(1, 3)]))
        by_pair = {(e.u, e.v): e for e in g.edges}
        e = by_pair[(0, 2)]
        assert e.weight == 0 and e.in_sn and not e.in_sc and not e.fictive

    def test_sc_pair_with_traffic_single_flagged_edge(self):
        g = build_graph(make_instance(3, 2, [(4, (1, 2))],
                                      cohabit=[(1, 2)]))
        matches = [e for e in g.edges if (e.u, e.v) == (0, 1)]
        assert len(matches) == 1
        e = matches[0]
        assert e.weight == 4 and e.in_sc and not e.fictive

    def test_zero_traffic_instance_fully_fictive(self):
        g = build_graph(make_instance(3, 1, [(0, (1, 2))]))
        assert [(e.u, e.v) for e in g.edges] == [(0, 1), (0, 2)]
        assert all(e.fictive for e in g.edges)
        assert total_weight(g) == 0

    def test_scale_limit(self):
        # the volumes' common denominator stays below MAX_SCALE, also when
        # each volume alone is within the limit, so that every traffic,
        # up to MAX_FLOW over it, prints
        below = Instance(2, 1, (Part(Fraction(1, MAX_SCALE - 1), (0, 1)),))
        assert build_graph(below).scale == MAX_SCALE - 1
        assert parse_instance(serialize_instance(below)) == below
        # MAX_SCALE itself, and two coprime 2001-digit denominators: refused
        # by Instance(...), and by parse_instance at the part's line
        message = "the volumes' common denominator has more than 3991 digits"
        for parts in ((Part(Fraction(1, MAX_SCALE), (0, 1)),),
                      (Part(Fraction(1, 10 ** 2000 + 1), (0, 1)),
                       Part(Fraction(1, 10 ** 2000 + 3), (1, 2)))):
            with pytest.raises(InstanceError, match=f"^{message}$"):
                Instance(3, 1, parts)
            text = "machines 3\nmax_cell_size 1\n" + "".join(
                f"part {p.volume} : {p.routing[0] + 1} {p.routing[1] + 1}\n"
                for p in parts)
            with pytest.raises(InstanceError, match=f"^line {2 + len(parts)}: "
                               f"{message}$"):
                parse_instance(text)


class TestGraphProperties:
    def test_connected_canonical_and_weight_total_fuzz(self):
        rng = random.Random(123)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InstanceWarning)
            for _ in range(300):
                inst = random_instance(rng, max_parts=4)
                traffic = compute_traffic(inst)
                g = build_graph(inst)
                # canonical ascending order, no duplicates, no self-loops
                pairs = [(e.u, e.v) for e in g.edges]
                assert pairs == sorted(pairs)
                assert len(set(pairs)) == len(pairs)
                assert all(u < v for u, v in pairs)
                # fictive edges carry no weight; every edge has a reason
                for e in g.edges:
                    if e.fictive:
                        assert e.weight == 0
                    assert e.weight > 0 or e.fictive or e.in_sc or e.in_sn
                # connected: union-find over all edges leaves one root
                parent = list(range(inst.machine_count))

                def find(x):
                    while parent[x] != x:
                        parent[x] = parent[parent[x]]
                        x = parent[x]
                    return x

                for u, v in pairs:
                    parent[find(u)] = find(v)
                assert len({find(v) for v in range(inst.machine_count)}) == 1
                # total weight equals total traffic (fictive edges add zero)
                assert total_weight(g) == sum(traffic.values(), Fraction(0))
                # deterministic construction
                assert build_graph(inst) == g
