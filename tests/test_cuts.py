"""Cut space: basis, integer naming, XOR/OR algebra, partition decoding."""

import random
import warnings
from itertools import combinations

import pytest

from cellform import (InstanceWarning, Partition, build_basis, build_graph,
                      cut_from_index, decode_partition, enumerate_all_cuts,
                      mask_from_bits, union_cuts, xor_cuts)
from cellform.instance import generate_instance
from helpers import (bits_from_mask, boundary_mask, make_instance,
                     partition_from_labels, random_instance, vertex_cut_mask)

# Hand-derived single-vertex cuts of the five-machine graph: bit i of a mask
# flags edge i of the canonical order (1,3)(1,4)(1,5)(2,3)(2,4)(2,5)(3,5)(4,5).
CUT_M1 = (1, 1, 1, 0, 0, 0, 0, 0)
CUT_M2 = (0, 0, 0, 1, 1, 1, 0, 0)
CUT_M3 = (1, 0, 0, 1, 0, 0, 1, 0)
CUT_M4 = (0, 1, 0, 0, 1, 0, 0, 1)

# Named cuts checkable by hand: the name's binary digits (least significant
# first) select which single-vertex cuts to XOR together.
NAMED_CUTS = {
    2: (0, 0, 0, 1, 1, 1, 0, 0),
    4: (1, 0, 0, 1, 0, 0, 1, 0),
    6: (1, 0, 0, 0, 1, 1, 1, 0),
    8: (0, 1, 0, 0, 1, 0, 0, 1),
    10: (0, 1, 0, 1, 0, 1, 0, 1),
    12: (1, 1, 0, 1, 1, 0, 1, 1),
    14: (1, 1, 0, 0, 0, 1, 1, 1),
}


def test_mask_bits_round_trip():
    assert mask_from_bits((0, 1, 1, 0, 1)) == 0b10110
    assert bits_from_mask(0b10110, 5) == (0, 1, 1, 0, 1)
    rng = random.Random(0)
    for _ in range(100):
        width = rng.randint(1, 40)
        mask = rng.getrandbits(width)
        assert mask_from_bits(bits_from_mask(mask, width)) == mask


class TestBasis:
    def test_five_machine_golden(self, five_machine_basis):
        basis = five_machine_basis
        assert basis.dimension == 4
        assert basis.vertex_count == 5
        assert basis.edge_count == 8
        assert basis.max_index == 15
        masks = [bits_from_mask(c.edge_mask, 8) for c in basis.cuts]
        assert masks == [CUT_M1, CUT_M2, CUT_M3, CUT_M4]
        assert [c.basis_index for c in basis.cuts] == [1, 2, 4, 8]

    def test_two_vertex_graph(self):
        g = build_graph(make_instance(2, 1, [(5, (1, 2))]))
        basis = build_basis(g)
        assert basis.dimension == 1
        assert bits_from_mask(basis.cuts[0].edge_mask, 1) == (1,)

    def test_path_graph(self):
        # path 1-2-3: cut of {1} touches only edge (1,2); cut of {2} both
        g = build_graph(make_instance(3, 1, [(1, (1, 2, 3))]))
        basis = build_basis(g)
        assert [bits_from_mask(c.edge_mask, 2) for c in basis.cuts] == \
            [(1, 0), (1, 1)]

    def test_linear_independence(self, five_machine_basis):
        cuts = five_machine_basis.cuts
        for r in range(1, len(cuts) + 1):
            for subset in combinations(cuts, r):
                xor = 0
                for c in subset:
                    xor ^= c.edge_mask
                assert xor != 0


class TestCutAlgebra:
    def test_xor_golden_pair(self, five_machine_basis):
        cuts = five_machine_basis.cuts
        w1 = xor_cuts(cuts[0], cuts[2])
        assert bits_from_mask(w1.edge_mask, 8) == (0, 1, 1, 1, 0, 0, 1, 0)
        assert w1.basis_index == 5
        w2 = xor_cuts(w1, cuts[1])
        assert bits_from_mask(w2.edge_mask, 8) == (0, 1, 1, 0, 1, 1, 1, 0)
        assert w2.basis_index == 7
        assert bits_from_mask(union_cuts([w1, w2]), 8) == \
            (0, 1, 1, 1, 1, 1, 1, 0)

    def test_xor_self_inverse(self, five_machine_basis):
        for c in five_machine_basis.cuts:
            z = xor_cuts(c, c)
            assert z.edge_mask == 0 and z.basis_index == 0

    def test_xor_group_laws_fuzz(self, five_machine_basis):
        rng = random.Random(3)
        basis = five_machine_basis
        for _ in range(200):
            a = cut_from_index(basis, rng.randint(0, basis.max_index))
            b = cut_from_index(basis, rng.randint(0, basis.max_index))
            c = cut_from_index(basis, rng.randint(0, basis.max_index))
            assert xor_cuts(a, b) == xor_cuts(b, a)
            assert xor_cuts(xor_cuts(a, b), c) == xor_cuts(a, xor_cuts(b, c))
            empty = cut_from_index(basis, 0)
            assert xor_cuts(a, empty) == a

    def test_union_trivia(self, five_machine_basis):
        assert union_cuts([]) == 0
        c = five_machine_basis.cuts[2]
        assert union_cuts([c]) == c.edge_mask


class TestCutFromIndex:
    def test_named_cut_goldens(self, five_machine_basis):
        for n, bits in NAMED_CUTS.items():
            cut = cut_from_index(five_machine_basis, n)
            assert bits_from_mask(cut.edge_mask, 8) == bits, f"cut {n}"
            assert cut.basis_index == n

    def test_zero_names_empty_cut(self, five_machine_basis):
        assert cut_from_index(five_machine_basis, 0).edge_mask == 0

    def test_out_of_range(self, five_machine_basis):
        with pytest.raises(ValueError, match=r"cut index -1 out of range"):
            cut_from_index(five_machine_basis, -1)
        with pytest.raises(ValueError, match=r"cut index 16 out of range"):
            cut_from_index(five_machine_basis, 16)

    def test_equals_vertex_subset_cut(self, five_machine_graph,
                                      five_machine_basis):
        # the cut named n is the cut of the vertex subset named by n's bits
        basis = five_machine_basis
        vertices = list(range(basis.vertex_count - 1))
        for n in range(1, 16):
            subset = {vertices[i] for i in range(4) if (n >> i) & 1}
            expected = vertex_cut_mask(five_machine_graph, subset)
            assert cut_from_index(basis, n).edge_mask == expected


class TestEnumerate:
    def test_five_machine_count_and_distinct(self, five_machine_basis):
        cuts = enumerate_all_cuts(five_machine_basis)
        assert len(cuts) == 15
        assert [c.basis_index for c in cuts] == list(range(1, 16))
        assert len({c.edge_mask for c in cuts}) == 15

    def test_two_vertex_single_cut(self):
        g = build_graph(make_instance(2, 1, [(1, (1, 2))]))
        cuts = enumerate_all_cuts(build_basis(g))
        assert len(cuts) == 1

    def test_matches_bipartition_oracle_fuzz(self):
        # independently enumerate cuts as vertex bipartitions
        rng = random.Random(11)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InstanceWarning)
            for _ in range(25):
                inst = random_instance(rng, rng.randint(3, 8), max_parts=6)
                g = build_graph(inst)
                basis = build_basis(g)
                cuts = enumerate_all_cuts(basis)
                assert len(cuts) == 2 ** (inst.machine_count - 1) - 1
                masks = {c.edge_mask for c in cuts}
                assert len(masks) == len(cuts)
                vertices = list(range(basis.vertex_count - 1))
                oracle = set()
                for bits in range(1, 2 ** len(vertices)):
                    subset = {vertices[i] for i in range(len(vertices))
                              if (bits >> i) & 1}
                    oracle.add(vertex_cut_mask(g, subset))
                assert masks == oracle

    def test_enumeration_guard(self):
        inst = generate_instance(21, 40, 5, seed=0)
        basis = build_basis(build_graph(inst))
        with pytest.raises(ValueError, match="exceeds the enumeration"):
            enumerate_all_cuts(basis)


class TestPartition:
    def test_accessors(self):
        p = Partition(((0, 2), (1,), (3, 4)))
        assert p.cell_count == 3
        assert p.labels(5) == [0, 1, 0, 2, 2]

    def test_from_labels_canonicalizes(self):
        p = partition_from_labels([7, 3, 7, 5, 3])
        assert p.cells == ((0, 2), (1, 4), (3,))


class TestDecode:
    def test_five_machine_golden(self, five_machine_graph):
        mask = mask_from_bits((0, 1, 1, 1, 1, 1, 1, 0))
        p = decode_partition(five_machine_graph, mask)
        assert p.cells == ((0, 2), (1,), (3, 4))

    def test_zero_mask_single_cell(self, five_machine_graph):
        p = decode_partition(five_machine_graph, 0)
        assert p.cells == ((0, 1, 2, 3, 4),)

    def test_full_mask_singletons(self, five_machine_graph):
        p = decode_partition(five_machine_graph, (1 << 8) - 1)
        assert p.cells == ((0,), (1,), (2,), (3,), (4,))

    def test_cell_count_bounds_fuzz(self, five_machine_graph,
                                    five_machine_basis):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(0, 15)
            mask = cut_from_index(five_machine_basis, n).edge_mask
            p = decode_partition(five_machine_graph, mask)
            assert 1 <= p.cell_count <= 5

    def test_separation_fuzz(self):
        # every edge in a union of cuts separates its endpoints' cells;
        # every edge outside stays within one cell
        rng = random.Random(99)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InstanceWarning)
            for _ in range(60):
                inst = random_instance(rng, rng.randint(3, 8), max_parts=6)
                g = build_graph(inst)
                basis = build_basis(g)
                picks = [cut_from_index(basis,
                                        rng.randint(1, basis.max_index))
                         for _ in range(rng.randint(1, 4))]
                union = union_cuts(picks)
                labels = decode_partition(g, union).labels(g.machine_count)
                for i, e in enumerate(g.edges):
                    crossing = labels[e.u] != labels[e.v]
                    assert crossing == bool((union >> i) & 1)


class TestBoundaryMask:
    def test_inverse_of_decode_on_cut_unions(self, five_machine_graph,
                                             five_machine_basis):
        rng = random.Random(21)
        for _ in range(100):
            picks = [cut_from_index(five_machine_basis, rng.randint(1, 15))
                     for _ in range(rng.randint(1, 3))]
            union = union_cuts(picks)
            p = decode_partition(five_machine_graph, union)
            assert boundary_mask(five_machine_graph, p) == union

    def test_decode_boundary_fixpoint_on_arbitrary_masks(
            self, five_machine_graph):
        # an arbitrary mask may not be a union of cuts, but decoding it and
        # re-deriving the boundary always reaches a stable partition
        rng = random.Random(22)
        g = five_machine_graph
        for _ in range(200):
            mask = rng.getrandbits(8)
            p = decode_partition(g, mask)
            again = decode_partition(g, boundary_mask(g, p))
            assert again == p
