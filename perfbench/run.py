"""cellform benchmark: planted-cell shops, solver workloads, layer trace.

Run from the root of a checkout::

    python3 perfbench/run.py --workload scga50 --seed 1 --seconds 30 --trace 0

The load is a closed loop: one client in this one process sends the next
request as soon as the previous one returns. A request is one planted-cell
shop (see ``shops.py``) passed to cellform as instance text; the workload's
solvers run on it with GA seed = request index. Every run completes the
workload's fixed list of requests, then keeps cycling through the same shops
(with new GA seeds) until ``--seconds`` have passed.

Every solve is checked against the routings without calling cellform (see
``shops.check_solve``). Quality and count metrics are taken over the fixed
list, and are stored under ``.bench_out/`` so that a later run with the same
seed and the same source files must reproduce them exactly.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs every
request twice, untraced and traced, in alternating order, checks that both
give identical results, and prints the per-layer metrics from the traced
copies; the spans are written to ``.bench_out/<workload>/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
describes the run and its environment. Timings compare only between runs on
the same machine.
"""

import os

# One BLAS/OpenMP thread, fixed before numpy is first imported: the program
# is single-threaded and the benchmark measures it that way on any machine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import time_reference  # noqa: E402
from shops import check_solve, planted_shop  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 3


@dataclass
class Execution:
    """One timed request: which, how, how long, and what it returned.

    ``ref_s`` is the mean duration of the reference kernel runs just before
    and just after the request.
    """

    index: int
    traced: bool
    seconds: float
    outcomes: list | None
    error: str | None
    ref_s: float = 0.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def fail(message: str):
    """Exit with code 2 and no result line."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_library():
    """Import cellform from this checkout's ``src``, or exit with code 2."""
    if not (SRC / "cellform" / "__init__.py").is_file():
        fail(f"no cellform sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cellform
    if Path(cellform.__file__).resolve().parent != SRC / "cellform":
        fail(f"imported cellform from {cellform.__file__}, not from {SRC}")


def source_digest() -> str:
    """Hash of the library and benchmark sources, keying stored records."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *ROOT.joinpath(
            "perfbench").rglob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "machine": platform.machine(),
        "note": "timings compare only between runs on the same machine",
    }


def time_import() -> float:
    """Wall time for a fresh interpreter to import cellform."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) if not path
               else os.pathsep.join((str(SRC), path)))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import cellform"], cwd=ROOT,
                   env=env, check=True, timeout=120,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def make_shops(workload, seed):
    return [planted_shop(seed, i, workload.machines, workload.parts,
                         workload.max_cell_size, workload.stay)
            for i in range(workload.fixed_requests)]


def set_up(workload, seed):
    """Import, generate the shops and serve one warm-up request, repeatedly.

    Returns the shops and the per-repetition set-up times.
    """
    from workloads import solve
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        time_import()
        shops = make_shops(workload, seed)
        solve(workload, shops[0].text, 0)
        times.append(time.perf_counter() - start)
    return shops, times


def check_outcomes(shop, outcomes) -> str | None:
    for outcome in outcomes:
        if outcome.cells is None:
            if outcome.feasible:
                return f"{outcome.method}: feasible without cells"
            continue
        problem = check_solve(shop, outcome.cells, outcome.traffic,
                              outcome.feasible)
        if problem:
            return f"{outcome.method}: {problem}"
    return None


def execute(workload, shop, index, tracer) -> Execution:
    from workloads import solve
    start = time.perf_counter()
    try:
        if tracer is None:
            outcomes = solve(workload, shop.text, index)
            seconds = time.perf_counter() - start
        else:
            outcomes, seconds = tracer.run_request(
                index, solve, workload, shop.text, index)
    except Exception:
        text = traceback.format_exc()
        print(text, file=sys.stderr)
        return Execution(index, tracer is not None,
                         time.perf_counter() - start, None,
                         f"raised: {text.strip().splitlines()[-1]}")
    return Execution(index, tracer is not None, seconds, outcomes,
                     check_outcomes(shop, outcomes))


def timed_loop(workload, shops, seconds, tracer) -> list[Execution]:
    """Requests back to back: the fixed list, then more until time is up.

    With a tracer every request runs untraced and traced, alternating which
    copy goes first. The reference kernel runs before the first request and
    after every request.
    """
    fixed = workload.fixed_requests
    runs = []
    refs = [time_reference()]
    begin = time.perf_counter()
    index = 0
    while index < fixed or time.perf_counter() - begin < seconds:
        modes = [None] if tracer is None \
            else [None, tracer] if index % 2 == 0 else [tracer, None]
        for mode in modes:
            runs.append(execute(workload, shops[index % fixed], index, mode))
            refs.append(time_reference())
        index += 1
    for run, before, after in zip(runs, refs, refs[1:]):
        run.ref_s = (before + after) / 2
    return runs


def fingerprint(outcomes) -> list:
    return [[o.method, o.cells, None if o.traffic is None else str(o.traffic),
             o.feasible] for o in outcomes]


def compare_traced(runs):
    """Fail a traced request whose result differs from its untraced twin."""
    by_index = {}
    for run in runs:
        by_index.setdefault(run.index, []).append(run)
    for pair in by_index.values():
        plain, traced = sorted(pair, key=lambda r: r.traced)
        if plain.error is None and traced.error is None and fingerprint(
                plain.outcomes) != fingerprint(traced.outcomes):
            traced.error = "traced result differs from untraced"


def compare_record(workload, seed, runs, tracer) -> str:
    """Check the fixed list against the stored record of this seed.

    The record holds each fixed request's results and, from traced runs, its
    per-layer counts. A stored field that differs fails the request. The
    record is keyed by a digest of the sources; a different digest replaces
    it. Returns the record's path.
    """
    path = OUT / workload.name / f"seed-{seed}.json"
    digest = source_digest()
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError):
        record = {}
    if record.get("source") != digest:
        record = {"source": digest, "requests": {}}
    stored = record["requests"]
    for run in runs:
        if run.index >= workload.fixed_requests or run.outcomes is None:
            continue
        fields = {"result": fingerprint(run.outcomes)}
        if run.traced:
            fields["counts"] = layer_counts(tracer, run.index)
        old = stored.setdefault(str(run.index), {})
        for key, value in json.loads(json.dumps(fields)).items():
            if key in old and old[key] != value and run.error is None:
                run.error = f"{key} differs from an earlier run with the " \
                            f"same seed"
            old[key] = value
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record))
    tmp.replace(path)
    return str(path.relative_to(ROOT))


def layer_counts(tracer, index) -> dict:
    """Calls per layer plus hook counters for one traced request."""
    counts = {f"{layer}.calls": cell[1]
              for layer, cell in tracer.self_ns[index].items()}
    counts.update(tracer.counts[index])
    return dict(sorted(counts.items()))


def tail(times) -> tuple[int, float, int]:
    """Highest whole percentile with at least 10 samples beyond it.

    Nearest-rank. Returns (percentile, value, samples beyond); with 10
    samples or fewer it is the maximum with none beyond.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return 100, ordered[-1], 0
    pct = 100 * (n - 10) // n
    rank = -(-pct * n // 100)
    return pct, ordered[rank - 1], n - rank


def quality(workload, shops, runs) -> tuple[float, float]:
    """traffic_ratio and feasible_share over the fixed list, untraced.

    A failed request contributes solves but no feasible ones.
    """
    ratios = []
    solves = feasible = 0
    for run in runs:
        if run.traced or run.index >= workload.fixed_requests:
            continue
        solves += len(workload.solves)
        shop = shops[run.index]
        for outcome in run.outcomes if run.error is None else ():
            if outcome.feasible:
                feasible += 1
                ratios.append(outcome.traffic / shop.planted_traffic)
    if not ratios:
        # No feasible solve at all: score as if every flow crossed cells.
        ratios = [sum((v * (len(r) - 1) for v, r in
                       zip(s.volumes, s.routings)), Fraction(0))
                  / s.planted_traffic for s in shops]
    return float(sum(ratios) / len(ratios)), feasible / solves


def end_to_end(workload, shops, runs, setup_times):
    """Gated metrics, and the same timings in raw seconds for the record.

    Request times are gated in reference units (request time over the
    adjacent reference kernel time): raw seconds drift with the machine.
    """
    plain = [r for r in runs if not r.traced]
    ok = [r for r in plain if r.error is None]
    cost = [r.seconds / r.ref_s for r in ok]
    raw = [r.seconds for r in ok]
    pct, tail_ref, beyond = tail(cost) if ok else (100, 0.0, 0)
    tail_s = tail(raw)[1] if ok else 0.0
    ratio, feasible_share = quality(workload, shops, runs)
    metrics = {
        "request_ref_p50": (statistics.median(cost) if ok else 0.0, "ref"),
        "request_ref_tail": (tail_ref, "ref"),
        "shops_per_kref": (1000 * len(ok) / sum(r.seconds / r.ref_s
                                                for r in plain), "1/kref"),
        "traffic_ratio": (ratio, "ratio"),
        "feasible_share": (feasible_share, "ratio"),
        "ok_share": (len(ok) / len(plain), "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    seconds = {
        "request_s_p50": (statistics.median(raw) if ok else 0.0, "s"),
        "request_s_tail": (tail_s, "s"),
        "shops_per_s": (len(ok) / sum(r.seconds for r in plain), "1/s"),
        "reference_s_p50": (statistics.median(r.ref_s for r in plain), "s"),
    }
    info = {"tail_percentile": pct, "requests_beyond_tail": beyond,
            "timed_requests": len(ok), "seconds": as_json(seconds)}
    return metrics, info


def as_json(metrics) -> dict:
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def per_layer(workload, runs, tracer):
    from tracer import LAYERS
    traced = [r for r in runs if r.traced]
    fixed = [r.index for r in traced if r.index < workload.fixed_requests]
    every = [r.index for r in traced]

    def total(indices, layer, field):
        return sum(tracer.self_ns[i].get(layer, (0, 0, 0))[field]
                   for i in indices)

    def count(indices, name):
        return sum(tracer.counts[i].get(name, 0) for i in indices)

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (
            total(every, layer, 0) / 1e9 / len(every), "s")
        metrics[f"{layer}.calls"] = (
            total(fixed, layer, 1) / len(fixed), "count")
    for layer in ("evaluation.evaluate_parts", "evaluation.evaluate_keeps"):
        metrics[f"{layer}.rows"] = (count(fixed, f"{layer}.rows")
                                    / len(fixed), "count")
        busy = total(every, layer, 2) / 1e9
        metrics[f"{layer}.rows_per_s"] = (
            count(every, f"{layer}.rows") / busy if busy else 0.0, "1/s")
    rows = count(fixed, "evaluation.evaluate_parts.rows")
    metrics["evaluation.distinct_share"] = (
        count(fixed, "evaluation.evaluate_parts.distinct") / rows
        if rows else 0.0, "ratio")
    rows += count(fixed, "evaluation.evaluate_keeps.rows")
    feasible_rows = count(fixed, "evaluation.evaluate_parts.feasible_rows") \
        + count(fixed, "evaluation.evaluate_keeps.feasible_rows")
    metrics["evaluation.feasible_row_share"] = (
        feasible_rows / rows if rows else 0.0, "ratio")
    graphs = total(fixed, "flowgraph.build_graph", 1)
    metrics["flowgraph.edges"] = (
        count(fixed, "flowgraph.build_graph.edges") / graphs
        if graphs else 0.0, "count")

    plain_s = [r.seconds for r in runs if not r.traced and r.error is None]
    traced_s = [r.seconds for r in traced if r.error is None]
    request_ns = total(every, "request", 2)
    metrics["trace.request_s_p50"] = (statistics.median(traced_s)
                                      if traced_s else 0.0, "s")
    metrics["trace.overhead"] = (
        statistics.median(traced_s) / statistics.median(plain_s) - 1
        if traced_s and plain_s else 0.0, "ratio")
    metrics["trace.unattributed_share"] = (
        total(every, "request", 0) / request_ns, "ratio")
    metrics["trace.hook_share"] = (tracer.hook_ns / request_ns, "ratio")
    metrics["trace.ref_s"] = (statistics.median(r.ref_s for r in traced), "s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    load_library()
    from tracer import Tracer
    from workloads import WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        fail(f"unknown workload {args.workload!r}; choose from "
             f"{', '.join(WORKLOADS)}")

    shops, setup_times = set_up(workload, args.seed)
    tracer = Tracer() if args.trace else None
    runs = timed_loop(workload, shops, args.seconds, tracer)
    if tracer is not None:
        compare_traced(runs)
    record = compare_record(workload, args.seed, runs, tracer)

    if tracer is None:
        metrics, info = end_to_end(workload, shops, runs, setup_times)
    else:
        metrics, info = per_layer(workload, runs, tracer), {}
        spans = OUT / workload.name / f"spans-seed-{args.seed}.npz"
        tracer.save(spans)
        info["spans"] = str(spans.relative_to(ROOT))
        info["absent_layers"] = tracer.absent
    failed = [r for r in runs if r.error is not None]
    info.update({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "requests": 1 + max(r.index for r in runs),
        "fixed_requests": workload.fixed_requests,
        "setup_s_reps": setup_times,
        "record": record,
        "errors": sorted({f"request {r.index}: {r.error}"
                          for r in failed})[:10],
        "environment": environment(),
    })
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": as_json(metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
