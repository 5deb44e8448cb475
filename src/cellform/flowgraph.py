"""Machine flow graph built from part routings.

The traffic between machines a and b is the volume-weighted count of adjacent
occurrences of the two machines (in either order) across all routings. The
flow graph has one vertex per machine and an edge for every machine pair with
positive traffic, plus edges for cohabitation/separation pairs (whatever
their traffic) and, if that leaves the graph disconnected, zero-weight
fictive edges that stitch the components together so that cut-based encodings
can reach every partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .instance import Instance, vertex_groups


def compute_traffic(inst: Instance) -> dict[tuple[int, int], Fraction]:
    """Accumulate volume-weighted adjacent-machine counts over all routings.

    A routing (M1, M2, M1) with volume 2 contributes 4 to the (M1, M2)
    traffic: two adjacent occurrences, each weighted by the volume.
    Counts are summed exactly in integer units of 1 / (the least common
    multiple of the volume denominators), one Fraction per machine pair.
    Returns {(a, b): traffic} for the pairs a < b with positive traffic,
    in ascending (a, b) order.
    """
    scale = math.lcm(*(part.volume.denominator for part in inst.parts))
    units: dict[tuple[int, int], int] = {}
    for part in inst.parts:
        step = part.volume.numerator * (scale // part.volume.denominator)
        for a, b in zip(part.routing, part.routing[1:]):
            key = (a, b) if a < b else (b, a)
            units[key] = units.get(key, 0) + step
    return {key: Fraction(total, scale)
            for key, total in sorted(units.items()) if total}


@dataclass(frozen=True)
class Edge:
    """Undirected edge with endpoints u < v (0-based machines)."""

    u: int
    v: int
    weight: Fraction
    in_sc: bool = False
    in_sn: bool = False
    fictive: bool = False


@dataclass(frozen=True)
class FlowGraph:
    """Connected machine graph; edges in canonical (u, v) ascending order."""

    machine_count: int
    edges: tuple[Edge, ...]

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def build_graph(inst: Instance) -> FlowGraph:
    """Build the flow graph for an instance.

    Edge set: pairs with positive traffic, plus cohabitation and separation
    pairs (a pair that also carries traffic yields a single edge with the
    flags set). If the result is disconnected, the lowest vertex of the first
    component (by lowest contained vertex) is linked to the lowest vertex of
    every other component with zero-weight fictive edges. Edges are sorted
    ascending by (u, v).
    """
    traffic = compute_traffic(inst)
    m = inst.machine_count
    keys = traffic.keys() | inst.cohabit | inst.separate
    edges = [Edge(a, b, traffic.get((a, b), Fraction(0)),
                  in_sc=(a, b) in inst.cohabit,
                  in_sn=(a, b) in inst.separate)
             for a, b in keys]

    reps = [group[0] for group in vertex_groups(m, keys)]
    for other in reps[1:]:
        edges.append(Edge(reps[0], other, Fraction(0), fictive=True))

    edges.sort(key=lambda e: (e.u, e.v))
    return FlowGraph(m, tuple(edges))
