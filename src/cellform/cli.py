"""Command line front end.

Verbs: solve (one method, one run), bench (replicated parameter sweep to
CSV), generate (random instance file), dump-graph (flow graph edge list).

Exit codes: 0 success, 1 usage error, 2 unreadable/invalid instance or other
input-domain error, 3 no feasible solution found (UF).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import BENCH_METHODS, METHODS, render_csv, render_table, \
    run_benchmark, solve
from .evaluation import Evaluation, violation_breakdown
from .flowgraph import build_graph
from .ga import GAParams
from .instance import Instance, generate_instance, parse_instance, \
    serialize_instance


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this CLI reserves 2 for bad input
    files, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_tuning(text: str) -> float | None:
    if text == "identity":
        return None
    if text.startswith("power:"):
        try:
            return float(text.split(":", 1)[1])
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad power tuning {text!r}") from None
    raise argparse.ArgumentTypeError(
        f"tuning must be 'identity' or 'power:<gamma>', got {text!r}")


def _int_list(text: str) -> list[int]:
    try:
        values = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _method_list(text: str) -> list[str]:
    methods = [t.strip() for t in text.split(",") if t.strip()]
    if not methods:
        raise argparse.ArgumentTypeError("empty method list")
    for method in methods:
        if method not in BENCH_METHODS:
            raise argparse.ArgumentTypeError(
                f"unknown method {method!r}; pick from "
                f"{', '.join(BENCH_METHODS)}")
    return methods


def _load_instance(path: str) -> Instance:
    # utf-8-sig drops the byte-order mark some editors begin a file with
    return parse_instance(Path(path).read_text(encoding="utf-8-sig"))


def _print_solution(ev: Evaluation, inst: Instance, wall: float):
    cells = " ".join(
        "[" + " ".join(str(v + 1) for v in cell) + "]"
        for cell in ev.partition.cells)
    size_v, sc_v, sn_v = violation_breakdown(ev.partition, inst)
    print(f"cells: {cells}")
    print(f"traffic: {ev.traffic}")
    print(f"feasible: {'yes' if ev.feasible else 'no'}")
    print(f"violations: {ev.violations} "
          f"(size {size_v}, cohabit {sc_v}, separate {sn_v})")
    print(f"wall_time_s: {wall:.3f}")


def cmd_solve(args) -> int:
    inst = _load_instance(args.instance)
    ev, wall = solve(inst, args.method, args.seed, restarts=args.reps,
                     population_size=args.pop, generations=args.gens,
                     crossover_rate=args.pc, mutation_rate=args.pm,
                     gamma=args.gamma)
    print(f"method: {args.method}")
    if ev is None:
        print(f"wall_time_s: {wall:.3f}")
        print("infeasible: the constraints admit no partition"
              if args.method == "oracle" else "UF: no feasible solution found")
        return 3
    _print_solution(ev, inst, wall)
    if not ev.feasible:
        print("UF: no feasible solution found")
        return 3
    return 0


def cmd_bench(args) -> int:
    inst = _load_instance(args.instance)
    rows = run_benchmark(
        inst, args.method, args.pop, args.gens,
        replications=args.reps, base_seed=args.seed,
        measure_time=args.timing == "wall",
        crossover_rate=args.pc, mutation_rate=args.pm, gamma=args.gamma)
    text = render_csv(rows)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        sys.stdout.write(render_table(rows))
    else:
        sys.stdout.write(text)
    return 0


def cmd_generate(args) -> int:
    inst = generate_instance(args.machines, args.parts, args.max_cell_size,
                             args.max_routing_len, args.seed)
    text = serialize_instance(inst)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_dump_graph(args) -> int:
    inst = _load_instance(args.instance)
    g = build_graph(inst)
    for e in g.edges:
        flags = [name for name, on in
                 (("fictive", e.fictive), ("sc", e.in_sc), ("sn", e.in_sn))
                 if on]
        print(" ".join([str(e.u + 1), str(e.v + 1), str(e.weight)] + flags))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cellform",
                     description="Cell formation via cut-based genetic "
                                 "algorithms on the machine flow graph.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--pc", type=float, default=GAParams.crossover_rate,
                       help="crossover share of the population "
                            "(default %(default)s)")
        p.add_argument("--pm", type=float, default=GAParams.mutation_rate,
                       help="mutated share of the population "
                            "(default %(default)s)")
        p.add_argument("--seed", type=int, default=0,
                       help="base random seed (default %(default)s)")
        p.add_argument("--reps", type=int, default=20,
                       help="replications (bench) or k-means restarts "
                            "(solve; default %(default)s)")
        p.add_argument("--tuning", dest="gamma", type=_parse_tuning,
                       default="identity", metavar="TUNING",
                       help="roulette weights: identity or "
                            "power:<gamma> (default %(default)s)")

    ps = sub.add_parser("solve", help="solve one instance with one method")
    ps.add_argument("instance", help="instance file path")
    ps.add_argument("--method", default="scga", choices=METHODS,
                    help="solver (default %(default)s)")
    ps.add_argument("--pop", type=int, default=300,
                    help="population size (default %(default)s)")
    ps.add_argument("--gens", type=int, default=300,
                    help="generations (default %(default)s)")
    add_common(ps)
    ps.set_defaults(func=cmd_solve)

    pb = sub.add_parser("bench", help="replicated parameter sweep to CSV")
    pb.add_argument("instance", help="instance file path")
    pb.add_argument("--method", type=_method_list, default="cga,scga,ega",
                    metavar="M1,M2,...",
                    help="comma-separated methods "
                         "(cga,scga,ega,multikmeans); default %(default)s")
    pb.add_argument("--pop", type=_int_list, default="100,200,300,400,500",
                    metavar="P1,P2,...",
                    help="population sizes (default %(default)s)")
    pb.add_argument("--gens", type=_int_list, default="100,200,300",
                    metavar="G1,G2,...",
                    help="generation counts (default %(default)s)")
    pb.add_argument("--out", help="CSV output path (default: CSV to stdout)")
    pb.add_argument("--timing", choices=("wall", "none"), default="wall",
                    help="'none' leaves avg_cpu_s empty so the CSV is "
                         "byte-identical across runs (default %(default)s)")
    add_common(pb)
    pb.set_defaults(func=cmd_bench)

    pg = sub.add_parser("generate", help="write a random instance")
    pg.add_argument("--machines", "-m", type=int, required=True)
    pg.add_argument("--parts", "-p", type=int, required=True)
    pg.add_argument("--max-cell-size", "-N", type=int, required=True)
    pg.add_argument("--max-routing-len", type=int, default=10,
                    help="routing lengths are uniform in [2, this] "
                         "(default %(default)s)")
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--out", help="output path (default: stdout)")
    pg.set_defaults(func=cmd_generate)

    pd = sub.add_parser("dump-graph",
                        help="print the flow graph as 'i j weight [flags]'")
    pd.add_argument("instance", help="instance file path")
    pd.set_defaults(func=cmd_dump_graph)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        # InstanceError is a ValueError; a RuntimeError means a GA ran out
        # of draws for its distinct initial population
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
