"""Benchmark sweep orchestration and CSV / table rendering."""

import csv
import io
from fractions import Fraction

import pytest

from cellform import (BenchmarkRow, FlowGraph, GAParams, InstanceWarning,
                      exhaustive_oracle, render_csv, render_table,
                      run_benchmark, run_ega, run_ga, run_multikmeans, solve)
from cellform.bench import METHODS
from helpers import make_instance

F = Fraction

SAMPLE_ROWS = [
    BenchmarkRow("scga", 10, 5, 2, Fraction(13, 2), Fraction(6), 0.12345,
                 Fraction(1)),
    BenchmarkRow("multikmeans", None, None, 2, None, None, None,
                 Fraction(1, 2)),
]


class TestRunBenchmark:
    def test_row_order(self, five_machine_instance):
        rows = run_benchmark(five_machine_instance, ["scga", "cga"],
                             [10, 8], [5, 3], 1, 0, measure_time=False)
        assert [(r.method, r.pop, r.gens) for r in rows] == [
            ("scga", 8, 3), ("scga", 8, 5), ("scga", 10, 3),
            ("scga", 10, 5), ("cga", 8, 3), ("cga", 8, 5),
            ("cga", 10, 3), ("cga", 10, 5)]

    def test_avg_never_better_than_best(self, five_machine_instance):
        rows = run_benchmark(five_machine_instance, ["scga", "ega"],
                             [10], [5, 10], 3, 2, measure_time=False)
        for row in rows:
            assert not row.uf
            assert row.avg_traffic >= row.best_traffic
            assert row.replications == 3

    def test_single_replication_avg_equals_best(self, five_machine_instance):
        rows = run_benchmark(five_machine_instance, ["scga"], [10], [5],
                             1, 0, measure_time=False)
        assert rows[0].avg_traffic == rows[0].best_traffic

    def test_scga_row_matches_direct_runs(self, five_machine_instance):
        base, reps = 11, 3
        rows = run_benchmark(five_machine_instance, ["scga"], [12], [6],
                             reps, base, measure_time=False)
        outcomes = [run_ga(five_machine_instance,
                           GAParams(12, 6, seed=base + r, variant="scga"))
                    for r in range(reps)]
        feasible = [o.best_evaluation.traffic for o in outcomes
                    if o.feasible_found]
        row = rows[0]
        assert row.feasible_rate == Fraction(len(feasible), reps)
        assert row.avg_traffic == sum(feasible, Fraction(0)) / len(feasible)
        assert row.best_traffic == min(feasible)
        assert row.avg_cpu_s is None

    def test_ega_row_matches_direct_runs(self, five_machine_instance):
        base, reps = 21, 2
        rows = run_benchmark(five_machine_instance, ["ega"], [12], [8],
                             reps, base, measure_time=False)
        outcomes = [run_ega(five_machine_instance,
                            GAParams(12, 8, seed=base + r, variant="scga"))
                    for r in range(reps)]
        traffics = [o.best_evaluation.traffic for o in outcomes
                    if o.feasible_found]
        assert rows[0].best_traffic == min(traffics)
        assert rows[0].avg_traffic == sum(traffics, Fraction(0)) / \
            len(traffics)

    def test_multikmeans_single_row(self, five_machine_instance):
        rows = run_benchmark(five_machine_instance,
                             ["multikmeans"], [10, 20], [5, 10], 2, 4,
                             measure_time=False)
        assert len(rows) == 1
        row = rows[0]
        assert row.method == "multikmeans"
        assert row.pop is None and row.gens is None
        assert row.replications == 2
        direct = [run_multikmeans(five_machine_instance, restarts=1,
                                  seed=4 + r) for r in range(2)]
        traffics = [d.traffic for d in direct if d is not None]
        assert row.best_traffic == min(traffics)

    def test_uf_row(self):
        with pytest.warns(InstanceWarning):
            inst = make_instance(4, 2, [(1, (1, 2)), (1, (3, 4))],
                                 cohabit=[(1, 2), (2, 3)])
        rows = run_benchmark(inst, ["scga", "multikmeans"], [6], [3], 2, 0,
                             measure_time=False)
        for row in rows:
            assert row.uf
            assert row.avg_traffic is None and row.best_traffic is None
            assert row.feasible_rate == 0
        assert "UF" in render_table(rows)
        for line in render_csv(rows).splitlines()[1:]:
            fields = line.split(",")
            assert fields[3] == "" and fields[4] == ""

    def test_validation(self, five_machine_instance):
        with pytest.raises(ValueError, match="unknown benchmark method"):
            run_benchmark(five_machine_instance, ["sa"], [4], [2], 1, 0)
        with pytest.raises(ValueError, match="replications"):
            run_benchmark(five_machine_instance, ["scga"], [4], [2], 0, 0)

    def test_timing_enabled(self, five_machine_instance):
        rows = run_benchmark(five_machine_instance, ["scga"], [8], [3], 1, 0,
                             measure_time=True)
        assert isinstance(rows[0].avg_cpu_s, float)
        assert rows[0].avg_cpu_s >= 0

    def test_deterministic_rows_without_timing(self, five_machine_instance):
        args = (five_machine_instance, ["scga", "ega", "multikmeans"],
                [10], [5])
        a = run_benchmark(*args, 2, 3, measure_time=False)
        b = run_benchmark(*args, 2, 3, measure_time=False)
        assert a == b
        assert render_csv(a) == render_csv(b)


class TestSolve:
    def test_each_method_runs_its_solver(self, five_machine_instance):
        inst = five_machine_instance
        ga = dict(population_size=12, generations=6, gamma=3.0)
        expected = {
            "cga": run_ga(inst, GAParams(variant="cga", seed=4, **ga)),
            "scga": run_ga(inst, GAParams(variant="scga", seed=4, **ga)),
            "ega": run_ega(inst, GAParams(seed=4, **ga)),
        }
        for method, result in expected.items():
            ev, wall = solve(inst, method, 4, **ga)
            assert ev == result.best_evaluation
            assert wall >= 0
        assert solve(inst, "multikmeans", 4, restarts=2)[0] == \
            run_multikmeans(inst, restarts=2, seed=4)
        assert solve(inst, "oracle")[0] == exhaustive_oracle(inst)

    def test_no_method_builds_the_edge_view(self, monkeypatch):
        # every solver reads the graph's integer units and endpoint tuples;
        # FlowGraph.edges (one Edge and one Fraction per edge) is a view
        # for dump-graph, the demos and the tests. Machines 7 and 8 are
        # joined to the rest by a fictive edge only.
        inst = make_instance(8, 3, [(F(5, 2), (1, 2, 3, 1)),
                                    (F(1, 3), (3, 4, 5)), (2, (5, 6, 4)),
                                    (7, (7, 8))],
                             cohabit=[(1, 4)], separate=[(2, 3), (4, 6)])
        ga = dict(population_size=16, generations=5)
        expected = {method: solve(inst, method, 2, **ga)[0]
                    for method in METHODS}

        def refuse(graph):
            raise AssertionError("FlowGraph.edges built on a solver path")

        monkeypatch.setattr(FlowGraph, "edges", property(refuse))
        for method in METHODS:
            assert solve(inst, method, 2, **ga)[0] == expected[method]
        assert any(ev is not None and ev.feasible
                   for ev in expected.values())

    def test_unknown_method(self, five_machine_instance):
        with pytest.raises(ValueError, match="unknown method"):
            solve(five_machine_instance, "sa")


class TestRenderCSV:
    def test_golden(self):
        assert render_csv(SAMPLE_ROWS) == (
            "method,pop,gens,avg_traffic,best_traffic,avg_cpu_s,"
            "feasible_rate\n"
            "scga,10,5,6.5,6,0.1235,1.0\n"
            "multikmeans,,,,,,0.5\n")

    def test_parses_back_with_csv_module(self, five_machine_instance):
        rows = run_benchmark(five_machine_instance, ["scga", "multikmeans"],
                             [8], [4], 2, 1, measure_time=True)
        parsed = list(csv.reader(io.StringIO(render_csv(rows))))
        assert parsed[0] == ["method", "pop", "gens", "avg_traffic",
                             "best_traffic", "avg_cpu_s", "feasible_rate"]
        assert all(len(line) == 7 for line in parsed)
        assert len(parsed) == len(rows) + 1
        # cpu column is a 4-decimal float when timing is on
        assert all("." in line[5] and len(line[5].split(".")[1]) == 4
                   for line in parsed[1:])

    def test_integer_traffic_has_no_decimal_point(self):
        row = BenchmarkRow("cga", 4, 2, 1, Fraction(7), Fraction(7), None,
                           Fraction(1))
        lines = render_csv([row]).splitlines()
        assert lines[1] == "cga,4,2,7,7,,1.0"


class TestRenderTable:
    def test_structure_and_markers(self):
        text = render_table(SAMPLE_ROWS)
        lines = text.splitlines()
        assert len(lines) == 2 + len(SAMPLE_ROWS)
        assert lines[0].split() == ["method", "pop", "gens", "avg",
                                    "traffic", "best", "cpu", "(s)",
                                    "feasible"]
        assert set(lines[1]) <= {"-", " "}
        assert lines[2].startswith("scga")
        assert "6.5" in lines[2] and "0.12" in lines[2]
        assert lines[3].startswith("multikmeans")
        assert "UF" in lines[3] and "1/2" in lines[3]

    def test_empty_rows(self):
        text = render_table([])
        lines = text.splitlines()
        assert len(lines) == 2
        assert "method" in lines[0]
