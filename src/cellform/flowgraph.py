"""Machine flow graph built from part routings.

The traffic between machines a and b is the volume-weighted count of adjacent
occurrences of the two machines (in either order) across all routings. The
flow graph has one vertex per machine and an edge for every machine pair with
positive traffic, plus edges for cohabitation/separation pairs (whatever
their traffic) and, if that leaves the graph disconnected, zero-weight
fictive edges that stitch the components together so that cut-based encodings
can reach every partition.

Edge weights are held as exact integer units over one ``scale``: weight i is
``units[i] / scale``, where ``scale`` is the least common multiple of the
reduced weights' denominators. ``build_graph`` is the one place that sets
them: it sums traffic in integer units of 1 / (the least common multiple S
of the volume denominators), then divides S and the sums by their common
gcd. The solvers work on the units alone; ``compute_traffic`` and
``FlowGraph.edges`` are exact ``Fraction`` views of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .instance import Instance, vertex_groups


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
    """Connected machine graph; edge i joins ``u[i] < v[i]`` and weighs
    ``units[i] / scale``, with edges in canonical (u, v) ascending order."""

    machine_count: int
    u: tuple[int, ...]
    v: tuple[int, ...]
    units: tuple[int, ...]
    scale: int
    in_sc: tuple[bool, ...]
    in_sn: tuple[bool, ...]
    fictive: tuple[bool, ...]

    @property
    def edge_count(self) -> int:
        return len(self.u)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as ``Edge`` objects with exact Fraction weights, built
        on first use; no solver reads them."""
        return tuple(map(Edge, self.u, self.v,
                         [Fraction(w, self.scale) for w in self.units],
                         self.in_sc, self.in_sn, self.fictive))


def build_graph(inst: Instance) -> FlowGraph:
    """Build the flow graph for an instance.

    A routing (M1, M2, M1) with volume 2 contributes 4 to the (M1, M2)
    traffic: two adjacent occurrences, each weighted by the volume.
    Edge set: pairs with positive traffic, plus cohabitation and separation
    pairs (a pair that also carries traffic yields a single edge with the
    flags set). If the result is disconnected, the lowest vertex of the first
    component (by lowest contained vertex) is linked to the lowest vertex of
    every other component with zero-weight fictive edges. Edges are sorted
    ascending by (u, v).
    """
    # traffic in units of 1 / scale, scale = lcm of the volume denominators
    # (below MAX_SCALE, which Instance checks)
    scale = math.lcm(*(part.volume.denominator for part in inst.parts))
    units: dict[tuple[int, int], int] = {}
    for part in inst.parts:
        step = part.volume.numerator * (scale // part.volume.denominator)
        for a, b in zip(part.routing, part.routing[1:]):
            key = (a, b) if a < b else (b, a)
            units[key] = units.get(key, 0) + step
    m = inst.machine_count
    keys = {key for key, total in units.items() if total} \
        | inst.cohabit | inst.separate
    reps = [group[0] for group in vertex_groups(m, keys)]
    fictive = {(reps[0], other) for other in reps[1:]}
    pairs = sorted(keys | fictive)
    weights = [units.get(pair, 0) for pair in pairs]
    # dividing out the common gcd makes scale the lcm of the denominators
    # of the reduced weights weights[i] / scale
    common = math.gcd(scale, *weights)
    u, v = zip(*pairs)
    return FlowGraph(m, u, v, tuple(w // common for w in weights),
                     scale // common,
                     *(tuple(map(flagged.__contains__, pairs)) for flagged
                       in (inst.cohabit, inst.separate, fictive)))


def compute_traffic(inst: Instance) -> dict[tuple[int, int], Fraction]:
    """Volume-weighted adjacent-machine counts over all routings, read off
    the flow graph: {(a, b): traffic} for the pairs a < b with positive
    traffic, in ascending (a, b) order, as exact Fractions."""
    g = build_graph(inst)
    return {(a, b): Fraction(w, g.scale)
            for a, b, w in zip(g.u, g.v, g.units) if w}
