"""Replicated benchmark sweeps and their CSV / table rendering.

``solve`` runs any method by name; the CLI's solve verb and every
replication of a sweep go through it.

Each (method, population, generations) setting is replicated with seeds
base_seed, base_seed+1, ... and summarized by the average and best traffic
over the feasible replications, the average solver wall time, and the
feasible-replication rate. A setting where no replication found a feasible
solution is reported UF and carries no traffic statistics.

All solver outputs are deterministic given (instance, methods, parameters,
base seed); wall-clock obviously is not, so ``measure_time=False`` leaves
the timing column empty and makes the CSV byte-identical across runs.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass
from fractions import Fraction

from .baselines import exhaustive_oracle, run_ega, run_multikmeans
from .evaluation import Evaluation
from .ga import GAParams, run_ga
from .instance import Instance

# solve takes every method; bench sweeps all but the (m <= 12) oracle
METHODS = ("cga", "scga", "ega", "multikmeans", "oracle")
BENCH_METHODS = METHODS[:-1]
GA_METHODS = METHODS[:3]


def solve(inst: Instance, method: str, seed: int = 0, restarts: int = 1,
          **ga_params) -> tuple[Evaluation | None, float]:
    """Run one method once: (best evaluation, wall seconds).

    ``ga_params`` are the GAParams fields other than variant and seed; only
    the GA methods need and read them, but they are checked for every
    method, so a bad setting is never silently ignored. Only multikmeans
    reads ``restarts``, but every method rejects ``restarts < 1``. The
    evaluation is None when multikmeans finds no feasible clustering or the
    oracle proves that no feasible partition exists.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    t0 = time.perf_counter()
    if ga_params or method in GA_METHODS:
        params = GAParams(variant="cga" if method == "cga" else "scga",
                          seed=seed, **ga_params)
    if method in GA_METHODS:
        run = run_ega if method == "ega" else run_ga
        ev = run(inst, params).best_evaluation
    elif method == "multikmeans":
        ev = run_multikmeans(inst, restarts=restarts, seed=seed)
    else:
        ev = exhaustive_oracle(inst)
    return ev, time.perf_counter() - t0


@dataclass(frozen=True)
class BenchmarkRow:
    """Summary of one (method, pop, gens) cell of the sweep."""

    method: str
    pop: int | None
    gens: int | None
    replications: int
    avg_traffic: Fraction | None
    best_traffic: Fraction | None
    avg_cpu_s: float | None
    feasible_rate: Fraction

    @property
    def uf(self) -> bool:
        return self.avg_traffic is None


def _summarize(method: str, pop: int | None, gens: int | None,
               outcomes: list[tuple[bool, Fraction | None]],
               cpu: float | None) -> BenchmarkRow:
    reps = len(outcomes)
    feasible = [t for ok, t in outcomes if ok]
    if feasible:
        avg = sum(feasible, Fraction(0)) / len(feasible)
        best = min(feasible)
    else:
        avg = best = None
    rate = Fraction(len(feasible), reps)
    return BenchmarkRow(method, pop, gens, reps, avg, best, cpu, rate)


def run_benchmark(inst: Instance, methods, pop_sizes, generation_counts,
                  replications: int, base_seed: int,
                  measure_time: bool = True,
                  **ga_params) -> list[BenchmarkRow]:
    """Run the full sweep; row order is methods x pop (asc) x gens (asc).

    ``ga_params`` (crossover_rate, mutation_rate, gamma) go to ``solve``
    for the GA methods. Every (pop, gens) of the grid is checked with them
    before anything runs, whatever the methods. multikmeans ignores the
    grid and contributes a single row whose replications each run one
    restart with seed base_seed + r.
    """
    for method in methods:
        if method not in BENCH_METHODS:
            raise ValueError(f"unknown benchmark method {method!r}")
    if replications < 1:
        raise ValueError("replications must be at least 1")
    grid = [(pop, gens) for pop in sorted(pop_sizes)
            for gens in sorted(generation_counts)]
    for pop, gens in grid:
        GAParams(pop, gens, **ga_params)
    rows = []
    for method in methods:
        ga = method in GA_METHODS
        for pop, gens in grid if ga else [(None, None)]:
            settings = dict(population_size=pop, generations=gens,
                            **ga_params) if ga else {}
            outcomes = []
            elapsed = 0.0
            for r in range(replications):
                ev, wall = solve(inst, method, base_seed + r, **settings)
                elapsed += wall
                feasible = ev is not None and ev.feasible
                outcomes.append((feasible, ev.traffic if feasible else None))
            cpu = elapsed / replications if measure_time else None
            rows.append(_summarize(method, pop, gens, outcomes, cpu))
    return rows


def _fmt_traffic(value: Fraction | None) -> str:
    if value is None:
        return ""
    if value.denominator == 1:
        return str(value.numerator)
    return repr(float(value))


def render_csv(rows: list[BenchmarkRow]) -> str:
    """CSV text (LF line endings, trailing newline, UTF-8 safe)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["method", "pop", "gens", "avg_traffic", "best_traffic",
                     "avg_cpu_s", "feasible_rate"])
    for row in rows:
        writer.writerow([
            row.method,
            "" if row.pop is None else str(row.pop),
            "" if row.gens is None else str(row.gens),
            _fmt_traffic(row.avg_traffic),
            _fmt_traffic(row.best_traffic),
            "" if row.avg_cpu_s is None else f"{row.avg_cpu_s:.4f}",
            repr(float(row.feasible_rate)),
        ])
    return buf.getvalue()


def render_table(rows: list[BenchmarkRow]) -> str:
    """Fixed-width summary table; UF settings show 'UF' for traffic."""
    header = ["method", "pop", "gens", "avg traffic", "best", "cpu (s)",
              "feasible"]
    body = []
    for row in rows:
        avg = "UF" if row.uf else _fmt_traffic(row.avg_traffic)
        best = "UF" if row.uf else _fmt_traffic(row.best_traffic)
        cpu = "-" if row.avg_cpu_s is None else f"{row.avg_cpu_s:.2f}"
        body.append([
            row.method,
            "-" if row.pop is None else str(row.pop),
            "-" if row.gens is None else str(row.gens),
            avg, best, cpu, str(row.feasible_rate),
        ])
    widths = [max(map(len, column)) for column in zip(header, *body)]
    return "".join("  ".join(map(str.ljust, r, widths)) + "\n"
                   for r in [header, ["-" * w for w in widths], *body])
