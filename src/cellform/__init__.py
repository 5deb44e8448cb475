"""Cell formation via cut-based graph partitioning.

Pipeline: parse or generate an :class:`Instance`, derive the machine flow
graph, encode partitions as unions of graph cuts, and search with genetic
algorithms (or the exact oracle / k-means baselines).
"""

from .baselines import exhaustive_oracle, run_ega, run_multikmeans
from .bench import BenchmarkRow, render_csv, render_table, run_benchmark, \
    solve
from .cuts import Cut, CutBasis, Partition, build_basis, cut_from_index, \
    decode_partition, enumerate_all_cuts, mask_from_bits, union_cuts, \
    xor_cuts
from .evaluation import EvalBatch, Evaluation, FitnessConfig, \
    PopulationEvaluator, fitness, violation_breakdown
from .flowgraph import Edge, FlowGraph, build_graph, compute_traffic
from .ga import GAParams, GAResult, compute_k, decode_chromosome, run_ga, \
    sort_chromosome
from .instance import Instance, InstanceError, InstanceWarning, Part, \
    generate_instance, parse_instance, serialize_instance

__version__ = "0.1.0"

__all__ = [
    "Cut", "CutBasis", "Edge", "EvalBatch", "Evaluation", "FitnessConfig",
    "FlowGraph", "GAParams", "GAResult",
    "Instance", "InstanceError", "InstanceWarning", "Part", "Partition",
    "PopulationEvaluator",
    "BenchmarkRow", "build_basis", "build_graph", "compute_k",
    "compute_traffic", "cut_from_index", "decode_chromosome",
    "decode_partition", "enumerate_all_cuts", "exhaustive_oracle", "fitness",
    "generate_instance", "mask_from_bits", "parse_instance", "render_csv",
    "render_table", "run_benchmark", "run_ega", "run_ga", "run_multikmeans",
    "serialize_instance", "solve", "sort_chromosome", "union_cuts",
    "violation_breakdown", "xor_cuts",
]
