"""Walk through the cut-space encoding on a small hand-checkable instance.

Five machines, eight unit-volume two-machine routings. The flow graph has
one edge per routed machine pair; a partition into cells is encoded as an
OR-union of basis cuts, so every chromosome decodes to a valid partition.
"""

from cellform import (Instance, Part, PopulationEvaluator, build_basis,
                      decode_partition, xor_cuts)

ROUTED_PAIRS = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 4),
                (3, 4)]

inst = Instance(
    machine_count=5, max_cell_size=2,
    parts=tuple(Part(volume=1, routing=pair) for pair in ROUTED_PAIRS))

# the evaluator builds the flow graph and fitness config from the instance
evaluator = PopulationEvaluator(inst)
g = evaluator.graph
print("flow graph edges (machine pairs are 1-based):")
for e in g.edges:
    print(f"  {e.u + 1}-{e.v + 1}  weight {e.weight}")



def bits(mask: int) -> str:
    """An edge mask as one flag per edge, edge 0 first."""
    return f"{mask:0{g.edge_count}b}"[::-1]


basis = build_basis(g)
print(f"\ncut basis: {basis.dimension} single-machine cuts "
      f"(machine {basis.vertex_count} excluded; its cut is the XOR of the "
      f"others)")
for i, cut in enumerate(basis.cuts):
    print(f"  w(machine {i + 1}) = {bits(cut.edge_mask)}"
          f"  index {cut.basis_index}")

w1 = xor_cuts(basis.cuts[0], basis.cuts[2])
w2 = xor_cuts(xor_cuts(basis.cuts[0], basis.cuts[1]), basis.cuts[2])
print(f"\nw1 = w(m1) XOR w(m3) = {bits(w1.edge_mask)}"
      f"  (cut index {w1.basis_index})")
print(f"w2 = w(m1) XOR w(m2) XOR w(m3) = {bits(w2.edge_mask)}"
      f"  (cut index {w2.basis_index})")

mask = w1.edge_mask | w2.edge_mask
print(f"\nOR-union = {bits(mask)}")
partition = decode_partition(g, mask)
print("decoded cells (1-based):",
      " ".join("{" + " ".join(str(v + 1) for v in cell) + "}"
               for cell in partition.cells))

# the solvers score whole populations; here a population of one
# chromosome whose parts name the two cuts
batch = evaluator.evaluate_parts(
    evaluator.pack_parts([(w1.basis_index, w2.basis_index)]))
ev = evaluator.result(batch, 0)
assert ev.partition == partition
print(f"\nintercellular traffic: {ev.traffic}  "
      f"(total flow {evaluator.cfg.bound})")
print(f"violations: {ev.violations}  feasible: {ev.feasible}")
print(f"penalized fitness: {ev.fitness}")
