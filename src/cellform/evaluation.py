"""Solution evaluation: traffic, constraint violations, penalized fitness.

The quality of a partition is its intercellular traffic Z (weights of the
edges marked as crossing cells). For maximization the solvers use

    Y = (B - Z) + (u - v) * B

where B bounds Z (the sum of all flows, or 1 if that is zero), u is the
constraint count m + |SC| + |SN| and v the number of violated constraints
(oversize cells, split cohabitation pairs, united separation pairs). Among
equal violation counts lower traffic gives higher Y, but Y's tiers meet at
Z = B, where v violations tie v + 1 with Z = 0. So every solver picks its
rows by ``EvalBatch.rank`` = Y - v (in weight units) instead, whose tier v
spans [(u - v) * B - v, (u - v + 1) * B - v]: any solution violating fewer
constraints outranks every solution violating more, and within a tier less
traffic ranks higher. An oversize cell holds two or more machines, so at
most m / 2 are, v < u and Y >= B > 0. Y itself is always kept exact;
``ga.roulette_select`` weighs a GA's rows by (Y / Y_max)^gamma (gamma = 1
unless set), which preserves Y's order and cannot overflow.

``PopulationEvaluator(inst)`` is the one evaluator every solver runs on. It
builds the instance's flow graph and fitness config itself, scores whole
populations in exact integer weight units, and turns any row of a batch
into the exact ``Evaluation`` a solver reports. The exhaustive oracle sums
the same units.

A cut chromosome is scored as the cell labels its cut signatures are:
both describe vertex classes, and one class path builds the keep matrix of
either. Each cell lies inside one class and a cell of more than N
machines is joined by at least N kept edges, so only a row that keeps at
least N edges can hold an oversize cell. One peel counts oversize cells:
bit-packed sweeps over all rows of a batch at once peel off one cell per
row per round, each seeded at the row's unsettled machine of highest
degree. It takes those flagged cut and label rows, and every row of
arbitrary edge masks (EGA, through ``evaluate_keeps``). A batch holds
one edge-major (E, pop) matrix, the edges with both ends in one cell:
for class rows that is the keep matrix itself, for masks the peel reports
it, and the score and the batch read it as built. Only ``result`` names
cells, for the one column it reports. The package needs numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cuts import Partition
from .flowgraph import build_graph
from .instance import Instance, vertex_groups


@dataclass(frozen=True)
class FitnessConfig:
    """Fitness parameters: traffic bound B and constraint count u."""

    bound: Fraction
    constraint_count: int

    def __post_init__(self):
        if self.bound <= 0:
            raise ValueError(f"bound must be positive, got {self.bound}")
        if self.constraint_count < 0:
            raise ValueError("constraint count must be non-negative")


def violation_breakdown(partition: Partition,
                        inst: Instance) -> tuple[int, int, int]:
    """(oversize cells, split cohabit pairs, united separate pairs)."""
    labels = partition.labels(inst.machine_count)
    oversize = sum(1 for cell in partition.cells
                   if len(cell) > inst.max_cell_size)
    split = sum(1 for a, b in inst.cohabit if labels[a] != labels[b])
    united = sum(1 for a, b in inst.separate if labels[a] == labels[b])
    return oversize, split, united


def fitness(traffic: Fraction, violations: int,
            cfg: FitnessConfig) -> Fraction:
    """Penalized fitness Y, exact whatever the gamma (gamma shapes only the
    roulette weights, see ``ga.roulette_select``)."""
    if violations > cfg.constraint_count:
        raise ValueError(
            f"internal inconsistency: {violations} violations exceed the "
            f"constraint count {cfg.constraint_count}")
    if traffic > cfg.bound:
        raise ValueError(
            f"internal inconsistency: traffic {traffic} exceeds the bound "
            f"{cfg.bound}")
    return (cfg.bound - traffic) \
        + (cfg.constraint_count - violations) * cfg.bound


@dataclass(frozen=True)
class Evaluation:
    """Everything known about one solution; ``fitness`` is the exact Y,
    whatever the gamma."""

    partition: Partition
    traffic: Fraction
    violations: int
    feasible: bool
    fitness: Fraction


@dataclass
class EvalBatch:
    """Vector results for one population.

    ``traffic_units`` and ``fitness_units`` have the evaluator's unit dtype
    (int64, or object when the fitness range exceeds int64); violations are
    int64 and ``inside`` is the edge-major (E, pop) boolean matrix of the
    edges with both ends in one cell, column i for row i. Every field has
    the rows on its last axis. The cells themselves are decoded only on
    request, one row at a time, by ``PopulationEvaluator.result``.
    ``rank`` is the one row order of every solver, derived from the fields.
    """

    traffic_units: np.ndarray
    violations: np.ndarray
    fitness_units: np.ndarray
    inside: np.ndarray

    @property
    def rank(self) -> np.ndarray:
        """Y - v per row, in units and the units' dtype: fewer violations
        always rank higher and, among equal violations, less traffic does,
        also where Y ties at Z = B (tier v spans [(u - v) * B - v,
        (u - v + 1) * B - v])."""
        return self.fitness_units - self.violations


_POW2 = np.uint64(1) << np.arange(64, dtype=np.uint64)


class PopulationEvaluator:
    """Evaluates whole populations at once, for any m and any part count.

    Built from the instance alone: ``graph`` is its flow graph and ``cfg``
    its fitness config, with bound B = total flow (1 if that is zero),
    u = m + |SC| + |SN|.

    B is summed in the graph's exact integer weight units (see
    ``flowgraph``), and ``to_fraction`` converts traffic and fitness units
    back. The unit arrays are int64 when the largest fitness (u + 1) * B
    fits with room to spare, and Python ints (object dtype) otherwise; the
    same code runs on either.

    Traffic is always measured on the decoded partition (edges whose
    endpoints land in different cells). For masks that are unions of cuts
    this equals the marked-edge sum; for arbitrary masks it is the honest
    cost of the decoded solution.

    Chromosome parts are interpreted against the cut basis of
    ``build_basis`` (the highest vertex excluded, bit v of a part selects
    the cut isolating vertex v). The signature of vertex v is the K-bit
    string whose bit j is bit v of part j, held in S = ceil(K / 64) words
    of the narrowest unsigned type that holds min(K, 64) bits; an edge
    survives the union of cuts exactly when its endpoints have equal
    signatures. So signatures are vertex labels: ``evaluate_parts`` builds
    the (S, pop, m) signature words and ``evaluate_labels`` passes its
    labels as one word, and ``_classes`` alone keeps the edges inside a
    class, as an edge-major (E, pop) matrix. Every cell then lies inside
    one class, so the kept edges are exactly the edges inside cells, and
    an SC or SN pair (always a flow-graph edge) shares a cell exactly when
    its edge is kept. A cell of more than N vertices is joined by at least
    N kept edges, so only the rows that keep at least N edges can hold an
    oversize cell, and ``_peel`` counts the oversize cells of those rows
    alone, all in one batch.

    ``evaluate_keeps`` takes arbitrary masks and passes every row to the
    same ``_peel``, which also reports the edges inside cells, unpacked to
    the same (E, pop) layout. Whatever its rows, the peel works on all of
    them at once, 64 rows to a uint64 word. A machine that keeps no edge
    is a cell of its own. Then each round seeds every row at its unsettled
    machine of highest flow-graph degree (the lowest such machine on ties)
    and sweeps out from it over the kept edges until nothing changes, so
    in each row's bit lane the sweep reaches exactly that machine's cell;
    the round marks the edges with both endpoints in the cell as inside,
    counts the cell as oversize where it has more than N machines, and
    settles it. Which edges lie inside cells and how many cells are
    oversize is all ``_score`` reads (traffic is the total weight less the
    weight inside), so the cells never need names; only ``result`` names
    them, decoding its one column with the union-find of
    ``instance.vertex_groups`` (cells ordered by lowest member, as in
    ``decode_partition``). A round makes one sweep, a pass over the 2E
    arcs, per kept edge on the longest shortest path out of its seed (a
    hub seed shortens that path; it does not change the number of rounds),
    and a batch takes one round per cell of two or more machines in its
    most divided row. How many such cells a row has depends on the kept
    share times the flow graph's degree: EGA's half-kept masks leave a few
    on graphs of average degree 4 or more, but a dozen or more on
    near-tree graphs of degree about 2, and masks that keep a few percent
    of a dense graph's edges leave the most.
    """

    def __init__(self, inst: Instance):
        self.graph = g = build_graph(inst)
        self.scale = g.scale
        # B = total flow, or 1 when there is none
        self._total_units = sum(g.units)
        self.bound_units = self._total_units or g.scale
        self.cfg = cfg = FitnessConfig(
            Fraction(self.bound_units, g.scale),
            inst.machine_count + len(inst.cohabit) + len(inst.separate))
        self.m = g.machine_count
        self.edge_u = np.array(g.u, dtype=np.int64)
        self.edge_v = np.array(g.v, dtype=np.int64)
        self.u = cfg.constraint_count
        fits_int64 = (self.u + 1) * self.bound_units < 2 ** 62
        self.units_dtype = np.int64 if fits_int64 else object
        self.weight_units = np.array(g.units, dtype=self.units_dtype)
        self.max_size = inst.max_cell_size
        # each SC or SN pair is one flow-graph edge
        self.sc_edges = np.flatnonzero(g.in_sc)
        self.sn_edges = np.flatnonzero(g.in_sn)
        # uint64 words per part (parts are below 2^(m-1)), and the bits a
        # part may set in each of them
        self.part_words = w = (self.m - 2) // 64 + 1
        self.part_mask = np.full(w, ~np.uint64(0))
        self.part_mask[-1] = (1 << (self.m - 1 - 64 * (w - 1))) - 1
        # the peel holds machines at positions by degree, highest first
        # (ties by index), and both arcs of every edge grouped by target
        # position; every machine has one, since build_graph stitches the
        # graph connected
        degree = np.bincount(np.concatenate([self.edge_u, self.edge_v]),
                             minlength=self.m)
        position = np.empty(self.m, dtype=np.int64)
        position[np.argsort(-degree, kind="stable")] = np.arange(self.m)
        self._pos_u = position[self.edge_u]
        self._pos_v = position[self.edge_v]
        arc_dst = np.concatenate([self._pos_v, self._pos_u])
        order = np.argsort(arc_dst, kind="stable")
        self._arc_src = np.concatenate([self._pos_u, self._pos_v])[order]
        self._arc_edge = np.tile(np.arange(g.edge_count), 2)[order]
        self._arc_starts = np.searchsorted(arc_dst[order], np.arange(self.m))

    # ----- exact conversions --------------------------------------------

    def to_fraction(self, units) -> Fraction:
        """Exact value of a traffic or fitness amount given in units."""
        return Fraction(int(units), self.scale)

    def result(self, batch: EvalBatch, i: int) -> Evaluation:
        """Exact Evaluation of row ``i`` of a batch."""
        traffic = self.to_fraction(batch.traffic_units[i])
        violations = int(batch.violations[i])
        kept = np.flatnonzero(batch.inside[:, i])
        cells = vertex_groups(self.m, zip(self.edge_u[kept].tolist(),
                                          self.edge_v[kept].tolist()))
        return Evaluation(Partition(tuple(map(tuple, cells))), traffic,
                          violations, violations == 0,
                          fitness(traffic, violations, self.cfg))

    # ----- part words ---------------------------------------------------

    def pack_parts(self, rows) -> np.ndarray:
        """Rows of K Python int parts as the (pop, K * W) uint64 word array
        ``evaluate_parts`` takes (W = ``part_words``, part j in words
        j*W .. j*W+W-1, least significant first).

        Raises ValueError for rows of unequal or zero length and for a part
        that is not a Python int in [0, 2^(m-1) - 1] (for m > 64 a part
        does not fit a numpy integer).
        """
        counts = {len(parts) for parts in rows}
        if len(counts) != 1 or 0 in counts:
            raise ValueError(f"chromosomes need one common, nonzero part "
                             f"count, got {sorted(counts)}")
        bad_part = f"chromosome parts must be Python ints in " \
                   f"0..2^{self.m - 1} - 1"
        width = 8 * self.part_words
        try:
            raw = b"".join([p.to_bytes(width, "little")
                            for parts in rows for p in parts])
        except (AttributeError, OverflowError):
            raise ValueError(bad_part) from None
        words = np.frombuffer(raw, "<u8").reshape(len(rows), -1)
        if self._above_range(words):
            raise ValueError(bad_part)
        return words.astype(np.uint64)

    def unpack_parts(self, row: np.ndarray) -> tuple[int, ...]:
        """One row of part words as its tuple of Python int parts; the
        inverse of ``pack_parts``."""
        raw = row.astype("<u8").tobytes()
        width = 8 * self.part_words
        return tuple(int.from_bytes(raw[i:i + width], "little")
                     for i in range(0, len(raw), width))

    def _above_range(self, words: np.ndarray) -> bool:
        """Whether any part of a word array has a bit at or above m - 1."""
        w = self.part_words
        return bool((words[:, w - 1::w] & ~self.part_mask[-1]).any())

    # ----- population paths --------------------------------------------

    def evaluate_parts(self, population: np.ndarray) -> EvalBatch:
        """Evaluate cut chromosomes given as the GA's (pop >= 1, K * W)
        uint64 word array (``pack_parts`` builds one from Python int parts).

        Raises ValueError for an array of any other dtype or shape, and for
        a part outside [0, 2^(m-1) - 1].
        """
        w = self.part_words
        population = np.asarray(population)
        if population.dtype != np.uint64 or population.ndim != 2 \
                or 0 in population.shape or population.shape[1] % w:
            raise ValueError(
                f"part words must be a uint64 (pop >= 1, K * {w}) array, "
                f"got {population.dtype} {population.shape}")
        words = np.ascontiguousarray(population, dtype="<u8")
        if self._above_range(words):
            raise ValueError(
                f"chromosome parts must be in 0..2^{self.m - 1} - 1")
        pop, k = len(words), words.shape[1] // w
        # bits[i, j, v]: bit v of part j of individual i, for the m machines
        bits = np.unpackbits(words.view(np.uint8).reshape(pop, k, 8 * w),
                             axis=2, count=self.m, bitorder="little")
        # keys[s, i, v]: bits 64s.. of vertex v's signature in individual
        # i, a sum of distinct powers of two in the narrowest unsigned type
        # that holds min(K, 64) bits
        sig_type = np.min_scalar_type((1 << min(k, 64)) - 1)
        keys = np.empty(((k + 63) // 64, pop, self.m), dtype=sig_type)
        for s in range(len(keys)):
            block = bits[:, 64 * s:64 * s + 64]
            np.einsum("ijv,j->iv", block,
                      _POW2[:block.shape[1]].astype(sig_type), out=keys[s])
        return self._classes(keys)

    def evaluate_keeps(self, keep: np.ndarray) -> EvalBatch:
        """Evaluate masks given as a (pop, E) boolean keep matrix.

        Raises ValueError unless the matrix is (pop >= 1, E). The batch
        holds the peel's edges inside cells, not the masks, so ``result``
        reads the cells as they were however the caller reuses its matrix.
        """
        keep = np.asarray(keep, dtype=bool)
        if keep.ndim != 2 or not len(keep) \
                or keep.shape[1] != len(self.edge_u):
            raise ValueError(f"keep matrix must be (pop >= 1, "
                             f"{len(self.edge_u)}), got {keep.shape}")
        inside, oversize = self._peel(keep)
        inside = np.unpackbits(inside.view(np.uint8), axis=1,
                               count=len(keep), bitorder="little")
        return self._score(inside.view(bool), oversize)

    def _peel(self, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(inside, oversize) of a (pop >= 1, E) bool keep matrix: bit i of
        ``inside[e]`` (uint64 words, 64 rows each) is set when one cell of
        row i holds both ends of edge e, and ``oversize[i]`` counts the
        cells of row i with more than N machines."""
        pop = len(keep)
        words = (pop + 63) // 64
        padded = np.zeros((64 * words, keep.shape[1]), dtype=np.uint8)
        padded[:pop] = keep
        # byte b of edge e has bit i set when row 8b + i keeps e; summing
        # powers of two is about twice as fast as np.packbits across rows
        packed = np.einsum("ijk,j->ik", padded.reshape(8 * words, 8, -1),
                           _POW2[:8].astype(np.uint8))
        # kept[a]: the rows that keep the edge of arc a, as bits
        kept = np.ascontiguousarray(packed.T).view("<u8")[self._arc_edge]
        # settled[p], per machine position: a machine that keeps no edge is
        # a cell of its own, never oversize (N >= 1); so is every machine
        # of the padding rows
        settled = ~np.bitwise_or.reduceat(kept, self._arc_starts)
        inside = np.zeros((len(self.edge_u), words), dtype="<u8")
        oversize = np.zeros(64 * words, dtype=np.int64)
        arcs = np.empty_like(kept)
        while True:
            # seen[p]: the rows with an unsettled machine among positions
            # 0..p, so reach seeds each row at its unsettled machine of
            # highest degree, a hub from which a cell is mostly reached in
            # fewer sweeps than from its lowest machine
            seen = np.bitwise_or.accumulate(~settled)
            if not seen[-1].any():
                break
            reach = seen.copy()
            reach[1:] ^= seen[:-1]
            # grown over kept arcs until nothing changes, reach[p] holds
            # the rows in which position p is in the seed's cell
            while True:
                # take into a buffer is about 3x faster than reach[arc_src]
                reach.take(self._arc_src, axis=0, out=arcs)
                arcs &= kept
                grown = np.bitwise_or.reduceat(arcs, self._arc_starts)
                grown |= reach
                if (grown == reach).all():
                    break
                reach = grown
            inside |= reach.take(self._pos_u, axis=0) \
                & reach.take(self._pos_v, axis=0)
            members = np.unpackbits(reach.view(np.uint8), axis=1,
                                    bitorder="little")
            oversize += members.sum(axis=0, dtype=np.int32) > self.max_size
            settled |= reach
        return inside, oversize[:pop]

    def evaluate_labels(self, labels: np.ndarray) -> EvalBatch:
        """Evaluate a (pop, m) matrix of per-machine cell labels.

        The cells' boundary edges are removed and the cells read off the
        remaining graph, so a labelled cell that is disconnected in the
        flow graph counts as its connected pieces. Labels are compared for
        equality as given (any dtype), never cast. Raises ValueError unless
        the matrix is (pop >= 1, m).
        """
        labels = np.asarray(labels)
        if labels.ndim != 2 or not len(labels) or labels.shape[1] != self.m:
            raise ValueError(f"label matrix must be (pop >= 1, {self.m}), "
                             f"got {labels.shape}")
        return self._classes(labels[None])

    def _classes(self, keys: np.ndarray) -> EvalBatch:
        """Batch for vertex classes given as (S, pop, m) keys: two vertices
        of a row are in one class when all S of their keys are equal (cut
        signatures in S words, or one word of labels). An edge is kept
        exactly inside a class, so every cell lies inside one class and
        the removed edges are the crossing ones. Only a row that keeps at
        least N edges can hold an oversize cell: those rows alone go
        through the peel, in one batch, which counts their oversize
        cells."""
        # gathering vertex-major rows per edge endpoint costs a fraction of
        # gathering the same columns, and take costs less than indexing
        by_vertex = keys.transpose(0, 2, 1).copy()
        u, v = self.edge_u, self.edge_v
        keep = by_vertex[0].take(u, axis=0) == by_vertex[0].take(v, axis=0)
        for word in by_vertex[1:]:
            keep &= word.take(u, axis=0) == word.take(v, axis=0)
        # a cell of more than N machines is joined by at least N kept
        # edges, so only the rows that keep as many go through the peel;
        # the edge-major bytes are summed in a type that holds E
        kept_count = np.add.reduce(keep.view(np.uint8), axis=0,
                                   dtype=np.min_scalar_type(len(keep)))
        flagged = np.flatnonzero(kept_count >= self.max_size)
        oversize = np.zeros(keep.shape[1], dtype=np.int64)
        if len(flagged):
            oversize[flagged] = self._peel(keep[:, flagged].T)[1]
        # every edge inside a class is kept, so the kept edges are exactly
        # the edges inside cells
        return self._score(keep, oversize)

    def _score(self, inside: np.ndarray, oversize: np.ndarray) -> EvalBatch:
        """Batch from the (E, pop) edges inside cells and the oversize cell
        count per row: a split SC pair is an SC edge not inside a cell, a
        united SN pair an SN edge inside one, and traffic is the weight of
        the edges not inside a cell."""
        sc, sn = inside[self.sc_edges], inside[self.sn_edges]
        violations = oversize + len(sc) - sc.sum(axis=0) + sn.sum(axis=0)
        # from the total flow, not B: B is one scale unit when there is none
        traffic = self._total_units \
            - np.einsum("ji,j->i", inside, self.weight_units)
        fitness_units = (self.bound_units - traffic) \
            + (self.u - violations).astype(self.units_dtype) \
            * self.bound_units
        return EvalBatch(traffic, violations, fitness_units, inside)
