"""Workload definitions and the solve request the benchmark times.

A request is one planted-cell shop given to cellform as instance text. The
request parses it and runs the workload's solvers in order, each with GA seed
= request index. Library functions are looked up on their modules at call
time, so the tracer's wrappers are seen when it is installed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from cellform import baselines, ga, instance


@dataclass(frozen=True)
class Workload:
    """One shop family, the solves run on each shop, and the fixed list.

    ``fixed_requests`` is the number of requests every run completes; the
    quality and count metrics are taken over exactly those, so they compare
    across commits regardless of how many more requests fit in the time.
    """

    name: str
    machines: int
    parts: int
    max_cell_size: int
    stay: float
    solves: tuple[tuple[str, int, int], ...]
    fixed_requests: int


# Why each workload exists: scga50 is the paper's solver on the vector
# evaluator, where the pure-Python operators dominate; compare50 drives the
# same evaluator through CGA (no sorting), EGA (raw edge masks through
# evaluate_keeps) and multi-k-means; wide96 is past the 63-machine limit of
# the vector evaluator, so its scalar fallback and the m^3 k-means dominate.
WORKLOADS = {w.name: w for w in (
    Workload("scga50", 50, 100, 7, 0.85, (("scga", 200, 100),), 24),
    Workload("compare50", 50, 100, 7, 0.85,
             (("cga", 200, 100), ("ega", 200, 100), ("multikmeans", 0, 0)),
             16),
    Workload("wide96", 96, 192, 8, 0.9,
             (("scga", 50, 10), ("multikmeans", 0, 0)), 10),
)}


@dataclass(frozen=True)
class Outcome:
    """What one solve reported: method, cells, traffic and feasibility.

    A multi-k-means run that finds no feasible clustering has no cells.
    """

    method: str
    cells: tuple[tuple[int, ...], ...] | None
    traffic: Fraction | None
    feasible: bool


def solve(workload: Workload, text: str, ga_seed: int) -> list[Outcome]:
    """Parse one shop and run every solve of the workload on it."""
    inst = instance.parse_instance(text)
    outcomes = []
    for method, pop, gens in workload.solves:
        if method == "multikmeans":
            ev = baselines.run_multikmeans(inst, restarts=1, seed=ga_seed)
        elif method == "ega":
            ev = baselines.run_ega(
                inst, ga.GAParams(pop, gens, seed=ga_seed)).best_evaluation
        else:
            ev = ga.run_ga(inst, ga.GAParams(
                pop, gens, variant=method, seed=ga_seed)).best_evaluation
        if ev is None:
            outcomes.append(Outcome(method, None, None, False))
        else:
            cells = tuple(tuple(int(v) for v in c) for c in ev.partition.cells)
            outcomes.append(Outcome(method, cells, ev.traffic, ev.feasible))
    return outcomes
