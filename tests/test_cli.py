"""Command line interface: verbs, output formats, and exit codes."""

import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cellform import InstanceWarning, generate_instance, serialize_instance
from cellform import ga
from cellform.bench import METHODS, run_benchmark, solve
from cellform.cli import main
from cellform.instance import MAX_FLOW, MAX_MACHINES, MAX_PARTS, \
    MAX_ROUTING_LEN, MAX_SCALE, Instance, Part
from helpers import make_instance

FIVE_MACHINE_ROUTINGS = [(1, p) for p in
                         [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5),
                          (3, 5), (4, 5)]]


def run_cli(argv):
    """Invoke the CLI in-process, normalizing SystemExit to a return code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    return code


@pytest.fixture
def five_machine_file(tmp_path, five_machine_instance):
    path = tmp_path / "five.txt"
    path.write_text(serialize_instance(five_machine_instance),
                    encoding="utf-8")
    return str(path)


def write_instance(tmp_path, name, *args, expect_warning=False, **kwargs):
    if expect_warning:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InstanceWarning)
            inst = make_instance(*args, **kwargs)
    else:
        inst = make_instance(*args, **kwargs)
    path = tmp_path / name
    path.write_text(serialize_instance(inst), encoding="utf-8")
    return str(path)


class TestUsageErrors:
    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "solve" in capsys.readouterr().out

    def test_no_arguments(self, capsys):
        assert run_cli([]) == 1

    def test_bad_solve_method(self, five_machine_file, capsys):
        assert run_cli(["solve", five_machine_file,
                        "--method", "annealing"]) == 1

    def test_bad_bench_method_list(self, five_machine_file, capsys):
        assert run_cli(["bench", five_machine_file,
                        "--method", "scga,annealing"]) == 1
        assert "unknown method" in capsys.readouterr().err

    def test_bad_tuning(self, five_machine_file, capsys):
        assert run_cli(["solve", five_machine_file,
                        "--tuning", "power:zero"]) == 1
        assert run_cli(["solve", five_machine_file,
                        "--tuning", "power:-1"]) == 2
        assert run_cli(["solve", five_machine_file,
                        "--tuning", "power:nan"]) == 2
        assert run_cli(["solve", five_machine_file,
                        "--tuning", "linear"]) == 1

    @pytest.mark.parametrize("verb", ["solve", "bench"])
    @pytest.mark.parametrize("tuning", ["power:zero", "linear"])
    def test_tuning_syntax_is_a_usage_error(self, five_machine_file, capsys,
                                            verb, tuning):
        assert run_cli([verb, five_machine_file, "--tuning", tuning]) == 1
        out, err = capsys.readouterr()
        assert out == "" and repr(tuning) in err

    def test_bad_int_list(self, five_machine_file, capsys):
        assert run_cli(["bench", five_machine_file, "--pop", "10,x"]) == 1
        assert run_cli(["bench", five_machine_file, "--pop", ","]) == 1


    def test_empty_bench_method_list(self, five_machine_file, capsys):
        assert run_cli(["bench", five_machine_file, "--method", ","]) == 1
        assert "empty method list" in capsys.readouterr().err


class TestInputErrors:
    def test_missing_file(self, tmp_path, capsys):
        assert run_cli(["solve", str(tmp_path / "nope.txt")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("machines two\n", encoding="utf-8")
        assert run_cli(["solve", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "line 1" in err

    @pytest.mark.parametrize("text, line, expected", [
        ("machines\n", 1, "expected: machines <count>"),
        ("# shop\nmachines 3 4\n", 2, "expected: machines <count>"),
        ("machines 3\nmax_cell_size\n", 2, "expected: max_cell_size <N>"),
    ])
    def test_header_arity(self, tmp_path, capsys, text, line, expected):
        path = tmp_path / "header.txt"
        path.write_text(text, encoding="utf-8")
        assert run_cli(["solve", str(path)]) == 2
        assert f"error: line {line}: {expected}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["solve", "--pop", "10", "--gens", "5", "--seed", "1"],
        ["bench", "--method", "scga", "--pop", "10", "--gens", "5",
         "--timing", "none"],
        ["dump-graph"],
    ])
    @pytest.mark.parametrize("text", ["", "machines two\n"])
    def test_byte_order_mark(self, five_machine_file, tmp_path, capsys,
                             argv, text):
        # a UTF-8 file that begins with a byte-order mark reads as the same
        # file without it, valid or not
        plain = Path(five_machine_file)
        if text:
            plain.write_text(text, encoding="utf-8")
        marked = tmp_path / "marked.txt"
        marked.write_text("\ufeff" + plain.read_text(encoding="utf-8"),
                          encoding="utf-8")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        runs = []
        for path in (plain, marked):
            code = run_cli([argv[0], str(path)] + argv[1:])
            out, err = capsys.readouterr()
            out = [line for line in out.splitlines()
                   if not line.startswith("wall_time_s:")]
            runs.append((code, out, err))
        assert runs[0] == runs[1]
        assert runs[0][0] == (2 if text else 0)

    @pytest.mark.parametrize("token", ["1e10000000", "1e-10000000",
                                       "1234567890e4295"])
    def test_volume_exponent_limit(self, tmp_path, capsys, token):
        path = tmp_path / "exp.txt"
        path.write_text(f"machines 3\nmax_cell_size 2\npart {token} : 1 2\n",
                        encoding="utf-8")
        for verb in ("solve", "dump-graph"):
            assert run_cli([verb, str(path)]) == 2
            err = capsys.readouterr().err
            assert f"line 3: volume '{token}' has an exponent beyond" in err

    @pytest.mark.parametrize("parts", [
        "part 1e-4300 : 1 2\n",
        "part 1234567890e4291 : 1\n",
        f"part 1/{10 ** 2200 + 1} : 1 2\npart 1/{10 ** 2200 + 3} : 1 3\n"
        "part 1 : 2 3\n",
    ], ids=["volume", "volume without flow", "common denominator"])
    def test_exact_number_beyond_text_limit(self, tmp_path, capsys, parts):
        # Python writes no int of more than 4300 digits as text: a file
        # whose volumes or traffic would need one is invalid input, refused
        # before anything is printed
        path = tmp_path / "digits.txt"
        path.write_text("machines 3\nmax_cell_size 2\n" + parts,
                        encoding="utf-8")
        for argv in (["solve"], ["solve", "--method", "oracle"],
                     ["dump-graph"]):
            assert run_cli([argv[0], str(path)] + argv[1:]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error: ") and "digits" in err

    def test_exact_number_at_text_limit(self, tmp_path, capsys):
        # the largest volume numerator a traffic can carry over the
        # largest accepted common denominator prints in full
        below = MAX_SCALE - 1
        volume = Fraction(int(MAX_FLOW) * below - 1, below)
        path = tmp_path / "digits.txt"
        path.write_text(serialize_instance(
            Instance(2, 1, (Part(volume, (0, 1)),))), encoding="utf-8")
        assert run_cli(["dump-graph", str(path)]) == 0
        assert capsys.readouterr().out == f"1 2 {volume}\n"
        for method in ("scga", "oracle"):
            assert run_cli(["solve", str(path), "--method", method, "--pop",
                            "2", "--gens", "2"]) == 0
            assert f"\ntraffic: {volume}\n" in capsys.readouterr().out

    def test_oracle_guard(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        path.write_text(serialize_instance(
            generate_instance(13, 5, 4, seed=0)), encoding="utf-8")
        assert run_cli(["solve", str(path), "--method", "oracle"]) == 2
        assert "exhaustive-search guard" in capsys.readouterr().err

    def test_generate_bad_dimensions(self, capsys):
        assert run_cli(["generate", "-m", "1", "-p", "5", "-N", "2"]) == 2

    def test_machine_count_limit(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text(f"machines {MAX_MACHINES + 1}\nmax_cell_size 3\n",
                        encoding="utf-8")
        assert run_cli(["solve", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "exceeds the limit" in err
        assert run_cli(["generate", "-m", str(MAX_MACHINES + 1), "-p", "5",
                        "-N", "3"]) == 2
        assert "exceeds the limit" in capsys.readouterr().err

    def test_population_limit(self, five_machine_file, capsys):
        for verb in ("solve", "bench"):
            assert run_cli([verb, five_machine_file, "--pop", "100000000",
                            "--gens", "1"]) == 2
            assert "exceeds the limit" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["solve", "bench"])
    @pytest.mark.parametrize("flag, value, setting", [
        ("--pop", "1", dict(population_size=1)),
        ("--gens", "-1", dict(generations=-1)),
        ("--pc", "2", dict(crossover_rate=2.0)),
        ("--pm", "-0.5", dict(mutation_rate=-0.5)),
        ("--reps", "0", dict(restarts=0)),
        ("--tuning", "power:0", dict(gamma=0.0)),
        ("--tuning", "power:-1", dict(gamma=-1.0)),
        ("--tuning", "power:nan", dict(gamma=float("nan"))),
    ], ids=["pop 1", "gens -1", "pc 2", "pm -0.5", "reps 0", "power:0",
            "power:-1", "power:nan"])
    def test_out_of_range_flag_gives_the_library_message(
            self, five_machine_file, five_machine_instance, capsys, verb,
            flag, value, setting):
        # the CLI only parses a GA flag; the library decides its range
        settings = dict(population_size=100, generations=100, restarts=20,
                        crossover_rate=0.7, mutation_rate=0.03, gamma=None)
        settings.update(setting)
        with pytest.raises(ValueError) as library:
            if verb == "solve":
                solve(five_machine_instance, "scga", **settings)
            else:
                run_benchmark(five_machine_instance, ["cga", "scga", "ega"],
                              [settings.pop("population_size")],
                              [settings.pop("generations")],
                              replications=settings.pop("restarts"),
                              base_seed=0, **settings)
        assert run_cli([verb, five_machine_file, flag, value]) == 2
        assert capsys.readouterr() == ("", f"error: {library.value}\n")

    @pytest.mark.parametrize("method", ["multikmeans", "oracle"])
    def test_ga_flags_checked_for_every_method(self, five_machine_file,
                                               method, capsys):
        for flags, message in ((["--pop", "1"], "at least 2"),
                               (["--pc", "7"], "crossover rate")):
            assert run_cli(["solve", five_machine_file, "--method", method,
                            "--tuning", "power:2", *flags]) == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["scga", "oracle"])
    def test_reps_checked_for_every_method(self, five_machine_file, method,
                                           capsys):
        for reps in ("0", "-3"):
            assert run_cli(["solve", five_machine_file, "--method", method,
                            "--pop", "10", "--gens", "2", "--reps",
                            reps]) == 2
            assert "restarts must be at least 1" in capsys.readouterr().err

    def test_bench_ga_flags_checked_for_multikmeans(self, five_machine_file,
                                                    capsys):
        for flags, message in ((["--pop", "1"], "at least 2"),
                               (["--pc", "7"], "crossover rate")):
            assert run_cli(["bench", five_machine_file, "--method",
                            "multikmeans", "--reps", "1", *flags]) == 2
            assert message in capsys.readouterr().err

    def test_generate_limits(self, capsys):
        # rejected before any part is drawn
        for flags in (["-p", str(MAX_PARTS + 1)],
                      ["-p", "1", "--max-routing-len", "1000000000"],
                      ["-p", "1", "--max-routing-len",
                       str(MAX_ROUTING_LEN + 1)]):
            assert run_cli(["generate", "-m", "5", "-N", "2", *flags]) == 2
            assert "exceeds the limit" in capsys.readouterr().err

    def test_draws_exhausted(self, five_machine_file, capsys, monkeypatch):
        # every draw is the same chromosome, so no distinct population exists
        monkeypatch.setattr(
            ga._CutEncoding, "draw",
            lambda self, rng, n: np.zeros((n, self.k * self.words),
                                          dtype=np.uint64))
        assert run_cli(["solve", five_machine_file, "--pop", "2",
                        "--gens", "1"]) == 2
        assert "could not draw 2 distinct" in capsys.readouterr().err


class TestSolve:
    def test_scga_five_machine(self, five_machine_file, capsys):
        assert run_cli(["solve", five_machine_file, "--method", "scga",
                        "--pop", "40", "--gens", "40", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "method: scga" in out
        assert "traffic: 6" in out
        assert "feasible: yes" in out
        assert "violations: 0 (size 0, cohabit 0, separate 0)" in out
        assert "wall_time_s:" in out
        assert "cells: " in out
        cells_line = next(l for l in out.splitlines()
                          if l.startswith("cells:"))
        listed = sorted(int(tok) for tok in
                        cells_line.replace("[", " ").replace("]", " ")
                        .split()[1:])
        assert listed == [1, 2, 3, 4, 5]

    def test_power_tuning_large_gamma(self, tmp_path, capsys):
        # Y^200 overflows a float; the (Y / Y_max)^200 weights cannot
        path = str(tmp_path / "shop.txt")
        assert run_cli(["generate", "-m", "30", "-p", "60", "-N", "5",
                        "--seed", "3", "--out", path]) == 0
        assert run_cli(["solve", path, "--tuning", "power:200",
                        "--pop", "60", "--gens", "30"]) == 0
        assert "feasible: yes" in capsys.readouterr().out

    def test_oracle_five_machine(self, five_machine_file, capsys):
        assert run_cli(["solve", five_machine_file,
                        "--method", "oracle"]) == 0
        out = capsys.readouterr().out
        assert "method: oracle" in out
        assert "traffic: 6" in out

    def test_cga_and_ega_smoke(self, five_machine_file, capsys):
        for method in ("cga", "ega"):
            assert run_cli(["solve", five_machine_file, "--method", method,
                            "--pop", "30", "--gens", "30",
                            "--seed", "0"]) == 0
            out = capsys.readouterr().out
            assert f"method: {method}" in out
            assert "traffic:" in out

    def test_multikmeans_separable(self, tmp_path, capsys):
        path = write_instance(tmp_path, "sep.txt", 6, 3,
                              [(5, (1, 2, 3, 1)), (5, (4, 5, 6, 4))])
        assert run_cli(["solve", path, "--method", "multikmeans",
                        "--reps", "2", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "method: multikmeans" in out
        assert "traffic: 0" in out
        assert "cells: [1 2 3] [4 5 6]" in out

    def test_uf_exit_code(self, tmp_path, capsys):
        path = write_instance(tmp_path, "uf.txt", 4, 2,
                              [(1, (1, 2)), (1, (3, 4))],
                              cohabit=[(1, 2), (2, 3)],
                              expect_warning=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InstanceWarning)
            assert run_cli(["solve", path, "--method", "scga",
                            "--pop", "10", "--gens", "5"]) == 3
        out = capsys.readouterr().out
        assert "UF: no feasible solution found" in out
        assert "feasible: no" in out

    def test_oracle_infeasible_exit_code(self, tmp_path, capsys):
        path = write_instance(tmp_path, "uf2.txt", 4, 2,
                              [(1, (1, 2))], cohabit=[(1, 2), (2, 3)],
                              expect_warning=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InstanceWarning)
            assert run_cli(["solve", path, "--method", "oracle"]) == 3
        out = capsys.readouterr().out
        assert "infeasible: the constraints admit no partition" in out

    def test_deterministic_modulo_wall_time(self, five_machine_file, capsys):
        argv = ["solve", five_machine_file, "--method", "scga",
                "--pop", "20", "--gens", "10", "--seed", "7"]
        assert run_cli(argv) == 0
        first = capsys.readouterr().out
        assert run_cli(argv) == 0
        second = capsys.readouterr().out
        strip = lambda text: [l for l in text.splitlines()
                              if not l.startswith("wall_time_s")]
        assert strip(first) == strip(second)


class TestHugeFlows:
    """Flows near the float64 limit: a shop whose fitness Y does not fit a
    float64 still solves with every method (the roulette weights and the
    k-means points are scaled), and a total flow beyond the float64 range
    is an input error."""

    # Y = (B - Z) + (u - v) * B reaches 5 * 1.2e308
    BIG = "machines 4\nmax_cell_size 2\npart 4e307 : 1 2 3 4\n" \
          "part 1 : 2 3\n"
    HUGE = "machines 4\nmax_cell_size 2\npart 1e400 : 1 2 3 4\n" \
           "part 1 : 2 3\n"

    @pytest.mark.parametrize("method", METHODS)
    def test_fitness_beyond_float_range(self, tmp_path, capsys, method):
        path = tmp_path / "big.txt"
        path.write_text(self.BIG, encoding="utf-8")
        code = run_cli(["solve", str(path), "--method", method, "--pop", "6",
                        "--gens", "5", "--reps", "2"])
        assert code == 0 and "feasible: yes" in capsys.readouterr().out

    @pytest.mark.parametrize("method", METHODS)
    def test_total_flow_beyond_float_range(self, tmp_path, capsys, method):
        path = tmp_path / "huge.txt"
        path.write_text(self.HUGE, encoding="utf-8")
        assert run_cli(["solve", str(path), "--method", method, "--pop", "6",
                        "--gens", "5"]) == 2
        assert "total flow exceeds the float64 range" in \
            capsys.readouterr().err


class TestSeeds:
    def test_negative_seed(self, tmp_path, capsys):
        path = str(tmp_path / "shop.txt")
        assert run_cli(["generate", "-m", "12", "-p", "30", "-N", "4",
                        "--seed", "11", "--out", path]) == 0
        outputs = []
        for seed in ("-7", "-7", "7"):
            assert run_cli(["solve", path, "--pop", "20", "--gens", "5",
                            "--seed", seed]) == 0
            outputs.append([line for line in
                            capsys.readouterr().out.splitlines()
                            if not line.startswith("wall_time_s")])
        assert outputs[0] == outputs[1]
        assert outputs[0] != outputs[2]


class TestGenerate:
    def test_stdout_matches_library(self, capsys):
        assert run_cli(["generate", "-m", "6", "-p", "10", "-N", "3",
                        "--max-routing-len", "8", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert out == serialize_instance(generate_instance(6, 10, 3, 8, 5))

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "gen.txt"
        assert run_cli(["generate", "-m", "5", "-p", "8", "-N", "2",
                        "--seed", "3", "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text(encoding="utf-8") == \
            serialize_instance(generate_instance(5, 8, 2, 10, 3))

    def test_deterministic(self, capsys):
        argv = ["generate", "-m", "7", "-p", "12", "-N", "3", "--seed", "9"]
        assert run_cli(argv) == 0
        first = capsys.readouterr().out
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == first


class TestDumpGraph:
    def test_five_machine_golden(self, five_machine_file, capsys):
        assert run_cli(["dump-graph", five_machine_file]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "1 3 1", "1 4 1", "1 5 1", "2 3 1", "2 4 1", "2 5 1",
            "3 5 1", "4 5 1"]

    def test_fictive_and_constraint_flags(self, tmp_path, capsys):
        path = write_instance(tmp_path, "flags.txt", 4, 2,
                              [(1, (1, 2)), (2, (3, 4))],
                              cohabit=[(1, 2)], separate=[(3, 4)])
        assert run_cli(["dump-graph", path]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "1 2 1 sc", "1 3 0 fictive", "3 4 2 sn"]

    def test_zero_traffic_separate_edge(self, tmp_path, capsys):
        path = write_instance(tmp_path, "sn.txt", 3, 2, [(1, (1, 2))],
                              separate=[(1, 3)])
        assert run_cli(["dump-graph", path]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "1 2 1", "1 3 0 sn"]


class TestBench:
    def test_csv_to_stdout(self, five_machine_file, capsys):
        assert run_cli(["bench", five_machine_file, "--method", "scga",
                        "--pop", "10", "--gens", "5", "--reps", "2",
                        "--seed", "1"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == ("method,pop,gens,avg_traffic,best_traffic,"
                            "avg_cpu_s,feasible_rate")
        assert len(lines) == 2
        assert lines[1].startswith("scga,10,5,")

    def test_timing_none_byte_identical(self, five_machine_file, capsys):
        argv = ["bench", five_machine_file, "--method", "scga,ega",
                "--pop", "10", "--gens", "5,3", "--reps", "2",
                "--seed", "2", "--timing", "none"]
        assert run_cli(argv) == 0
        first = capsys.readouterr().out
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == first
        # the cpu column really is empty
        assert all(line.split(",")[5] == ""
                   for line in first.splitlines()[1:])

    def test_out_writes_csv_and_prints_table(self, five_machine_file,
                                             tmp_path, capsys):
        target = tmp_path / "rows.csv"
        assert run_cli(["bench", five_machine_file, "--method",
                        "scga,multikmeans", "--pop", "10", "--gens", "5",
                        "--reps", "2", "--seed", "3",
                        "--out", str(target)]) == 0
        table = capsys.readouterr().out
        assert "method" in table and "scga" in table
        assert "multikmeans" in table
        csv_text = target.read_text(encoding="utf-8")
        assert csv_text.startswith("method,pop,gens,")
        assert len(csv_text.splitlines()) == 3


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run([sys.executable, "-m", "cellform", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "solve" in proc.stdout


    def test_exit_codes_reach_the_shell(self, tmp_path):
        # sys.exit(main()) in __main__ hands each code to the parent process
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        infeasible = tmp_path / "infeasible.txt"
        infeasible.write_text("machines 3\nmax_cell_size 1\ncohabit 1 2\n",
                              encoding="utf-8")
        runs = [(["generate", "-m", "5", "-p", "3", "-N", "2"], 0,
                 "machines 5"),
                (["solve", str(tmp_path / "missing.txt")], 2, "error:"),
                (["solve", str(infeasible), "--method", "oracle"], 3,
                 "infeasible: the constraints admit no partition")]
        for argv, code, out in runs:
            proc = subprocess.run([sys.executable, "-m", "cellform", *argv],
                                  cwd=tmp_path, env=env, capture_output=True,
                                  text=True, timeout=120)
            assert proc.returncode == code, proc.stderr
            assert out in proc.stdout + proc.stderr


class TestWithoutScipy:
    """cellform needs numpy only. With scipy unimportable the library
    imports, and SCGA, CGA, EGA, multi-k-means and the oracle give the same
    results as in an ordinary process; ``solve`` (default method, ega,
    multikmeans and oracle), ``bench`` of every GA and multi-k-means,
    ``generate`` and ``dump-graph`` exit as usual with the same output.
    No verb or method imports a scipy module, in either process."""

    SCRIPT = """
import contextlib, io, sys
if sys.argv[2] == "blocked":
    sys.modules["scipy"] = None
import cellform
from cellform import GAParams, cli, exhaustive_oracle, generate_instance, \\
    run_ega, run_ga, run_multikmeans
inst = generate_instance(50, 100, 7, 10, seed=42)
for variant in ("scga", "cga"):
    for seed in range(4):
        print(run_ga(inst, GAParams(100, 50, variant=variant,
                                    seed=seed)).best_evaluation)
for seed in range(2):
    print(run_ega(inst, GAParams(100, 30, seed=seed)).best_evaluation)
wide = generate_instance(96, 192, 8, 10, seed=1)
for shop, restarts in ((inst, 3), (wide, 2)):
    print(run_multikmeans(shop, restarts=restarts, seed=5))
small = generate_instance(9, 18, 3, 6, seed=3)
print(exhaustive_oracle(small))
shop = sys.argv[1]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert cli.main(["generate", "-m", "50", "-p", "100", "-N", "7",
                     "--seed", "42", "--out", shop]) == 0
    for seed in ("0", "1"):
        assert cli.main(["solve", shop, "--pop", "100", "--gens", "50",
                         "--seed", seed]) == 0
    # EGA finds no feasible cells here: exit 3 after the solution
    assert cli.main(["solve", shop, "--method", "ega", "--pop", "60",
                     "--gens", "20"]) == 3
    assert cli.main(["solve", shop, "--method", "multikmeans",
                     "--reps", "4"]) == 0
    with open(shop + ".small", "w") as f:
        f.write(cellform.serialize_instance(small))
    assert cli.main(["solve", shop + ".small", "--method", "oracle"]) == 0
    assert cli.main(["bench", shop, "--method", "cga,scga,ega,multikmeans",
                     "--pop", "20", "--gens", "5", "--reps", "2",
                     "--timing", "none"]) == 0
    assert cli.main(["dump-graph", shop]) == 0
print("\\n".join(line for line in out.getvalue().splitlines()
                if not line.startswith("wall_time_s")))
loaded = [name for name in sys.modules if name.split(".")[0] == "scipy"]
assert loaded == (["scipy"] if sys.argv[2] == "blocked" else []), loaded
"""

    def test_cut_ga_and_cli_run_without_scipy(self, tmp_path):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        out = {}
        for mode in ("blocked", "ordinary"):
            (tmp_path / mode).mkdir()
            proc = subprocess.run(
                [sys.executable, "-c", self.SCRIPT,
                 str(tmp_path / mode / "shop.txt"), mode],
                cwd=tmp_path, env=env, capture_output=True, text=True,
                timeout=300)
            assert proc.returncode == 0, proc.stderr
            out[mode] = proc.stdout.splitlines()
        assert out["blocked"] == out["ordinary"]
        assert sum(line.startswith("method: ") for line in out["blocked"]) \
            == 5
        assert sum(line.startswith(("ega,", "multikmeans,"))
                   for line in out["blocked"]) == 2
