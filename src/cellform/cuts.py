"""Cut space of a connected graph over GF(2).

A cut is the set of edges with exactly one endpoint in some vertex subset.
Cuts, viewed as edge-incidence bit vectors, are closed under XOR and form a
vector space of dimension m-1 for a connected graph on m vertices. The basis
used here is made of the single-vertex cuts of every vertex except the
highest-indexed one. Each nonzero integer n in [1, 2^(m-1)-1] then names a
distinct nonempty cut: bit i-1 of n selects the i-th basis cut into the
XOR. This gives a bijection between integers and cuts that the genetic
encodings rely on.

Edge masks are plain ints: bit i corresponds to edge i of the graph's
canonical edge order. Removing the edges of an OR-union of cuts splits the
graph into cells; ``decode_partition`` recovers them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .flowgraph import FlowGraph
from .instance import vertex_groups


def mask_from_bits(bits) -> int:
    """Pack an iterable of 0/1 flags (edge 0 first) into an int mask."""
    return sum(1 << i for i, b in enumerate(bits) if b)


@dataclass(frozen=True)
class Cut:
    """A cut: its edge-incidence mask and its integer name in the basis."""

    edge_mask: int
    basis_index: int


@dataclass(frozen=True)
class CutBasis:
    """Basis of single-vertex cuts, one per vertex except the highest
    (vertex_count - 1)."""

    cuts: tuple[Cut, ...]
    vertex_count: int
    edge_count: int

    @property
    def dimension(self) -> int:
        return len(self.cuts)

    @property
    def max_index(self) -> int:
        """Largest valid cut name: 2^(m-1) - 1."""
        return (1 << self.dimension) - 1


def build_basis(g: FlowGraph) -> CutBasis:
    """Build the single-vertex cut basis of a connected flow graph.

    The i-th basis cut (i starting at 1) isolates vertex i - 1 and carries
    basis_index 2^(i-1); the highest vertex m - 1 has no basis cut (its cut
    is the XOR of all the others). ``PopulationEvaluator.evaluate_parts``
    reads parts against this same basis.
    """
    m = g.machine_count
    incidence = [0] * m
    for i, (a, b) in enumerate(zip(g.u, g.v)):
        incidence[a] |= 1 << i
        incidence[b] |= 1 << i
    cuts = tuple(Cut(incidence[v], 1 << v) for v in range(m - 1))
    return CutBasis(cuts, m, g.edge_count)


def xor_cuts(a: Cut, b: Cut) -> Cut:
    """XOR of two cuts; masks and basis names both combine by XOR."""
    return Cut(a.edge_mask ^ b.edge_mask, a.basis_index ^ b.basis_index)


def cut_from_index(basis: CutBasis, n: int) -> Cut:
    """The cut named by integer n: XOR of the basis cuts on n's set bits.

    n = 0 names the empty cut (all-zero mask).
    """
    if not 0 <= n <= basis.max_index:
        raise ValueError(
            f"cut index {n} out of range 0..{basis.max_index}")
    mask = 0
    for pos, cut in enumerate(basis.cuts):
        if n >> pos & 1:
            mask ^= cut.edge_mask
    return Cut(mask, n)


def union_cuts(cuts) -> int:
    """OR-union of cut edge masks; empty input gives the zero mask."""
    mask = 0
    for c in cuts:
        mask |= c.edge_mask
    return mask


_ENUM_GUARD = 20


def enumerate_all_cuts(basis: CutBasis) -> list[Cut]:
    """All 2^(m-1)-1 cuts of the graph, in increasing basis_index order.

    Guarded to m <= 20 vertices; beyond that the enumeration explodes.
    """
    if basis.vertex_count > _ENUM_GUARD:
        raise ValueError(
            f"vertex count {basis.vertex_count} exceeds the enumeration "
            f"guard ({_ENUM_GUARD})")
    return [cut_from_index(basis, n) for n in range(1, basis.max_index + 1)]


@dataclass(frozen=True)
class Partition:
    """Machine cells, canonically ordered by each cell's lowest machine."""

    cells: tuple[tuple[int, ...], ...]

    @property
    def cell_count(self) -> int:
        return len(self.cells)

    def labels(self, machine_count: int) -> list[int]:
        """Cell index per machine, as a dense list."""
        lab = [-1] * machine_count
        for i, cell in enumerate(self.cells):
            for v in cell:
                lab[v] = i
        return lab


def decode_partition(g: FlowGraph, edge_mask: int) -> Partition:
    """Cells left after removing the masked edges from the graph.

    For a mask that is a union of cuts, every masked edge ends up joining two
    different cells and every unmasked edge stays inside one.
    """
    kept = [(a, b) for i, (a, b) in enumerate(zip(g.u, g.v))
            if not (edge_mask >> i) & 1]
    return Partition(tuple(map(tuple, vertex_groups(g.machine_count, kept))))
