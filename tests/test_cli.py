import gc
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsegroups import cli
from coarsegroups.bornology import GeneratedBasis, GeometricSeed, MinimalBasis, member
from coarsegroups.cli import (
    ConfigError,
    bornology_description,
    main,
    parse_element,
    parse_group,
    parse_int_set,
    parse_metric,
)
from coarsegroups.groups import GroupSpec, ball_size_cap, set_size_cap
from coarsegroups.metrics import (
    Entry12Pseudometric,
    MaxEntryMetric,
    QuotientWordMetric,
    WordMetric,
)
from coarsegroups.scenarios import SCENARIOS

from oracles import bfs_distances, cayley_adjacency

SRC = str(Path(cli.__file__).parents[1])


def run_cli_process(argv, **env):
    """`python -m coarsegroups.cli argv` in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "coarsegroups.cli", *argv],
        env=dict(os.environ, PYTHONPATH=SRC, **env),
        capture_output=True,
        text=True,
    )


@pytest.fixture(autouse=True)
def fresh_bases():
    """Every test starts with no shared bornology bases."""
    cli.shared_basis.cache_clear()
    yield
    cli.shared_basis.cache_clear()


class TestParsers:
    def test_groups(self):
        assert parse_group("Z").rank == 1
        assert parse_group("Z^3").rank == 3
        assert parse_group("Z/7") == GroupSpec.cyclic(7)
        assert parse_group("heisenberg").kind == "heisenberg"
        assert parse_group("H").kind == "heisenberg"

    def test_bad_group(self):
        with pytest.raises(ConfigError):
            parse_group("SL2")
        with pytest.raises(ConfigError):
            parse_group("Z^x")

    def test_elements(self):
        H = parse_group("H")
        assert parse_element(H, "(1, 0, 1)") == (1, 0, 1)
        Z = parse_group("Z")
        assert parse_element(Z, "5") == (5,)
        C7 = parse_group("Z/7")
        assert parse_element(C7, "9") == (2,)
        assert parse_element(C7, "3 mod 7") == (3,)

    def test_bad_element(self):
        with pytest.raises(ConfigError):
            parse_element(parse_group("H"), "(1, 2)")
        with pytest.raises(ConfigError):
            parse_element(parse_group("Z/7"), "3 mod 5")

    def test_metrics(self):
        Z = parse_group("Z")
        assert parse_metric(Z, "word").spec is Z
        assert isinstance(parse_metric(Z, "word"), WordMetric)
        assert isinstance(parse_metric(Z, "quotient:5"), QuotientWordMetric)
        H = parse_group("H")
        assert isinstance(parse_metric(H, "maxentry"), MaxEntryMetric)
        assert isinstance(parse_metric(H, "entry12"), Entry12Pseudometric)

    def test_metric_group_mismatch(self):
        with pytest.raises(ConfigError):
            parse_metric(parse_group("Z"), "maxentry")
        with pytest.raises(ConfigError):
            parse_metric(parse_group("H"), "quotient:5")

    def test_int_sets(self):
        assert parse_int_set("{0, 10, 100}") == frozenset([(0,), (10,), (100,)])
        assert parse_int_set("evens:0..6") == frozenset([(0,), (2,), (4,), (6,)])
        with pytest.raises(ConfigError):
            parse_int_set("0,1,2")


class TestExitCodes:
    def test_passing_run_is_zero(self, capsys):
        assert main(["run", "rho_plus_demo", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_pass"] is True

    def test_failing_assertions_are_one(self, capsys, monkeypatch):
        def broken(report):
            report.check("always fails", 0, 1, "TRIVIAL")

        monkeypatch.setitem(SCENARIOS, "broken", broken)
        assert main(["run", "broken"]) == 1
        err = capsys.readouterr().err
        assert "FAIL: always fails" in err

    def test_unknown_scenario_is_two(self, capsys):
        assert main(["run", "does_not_exist"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_parameter_is_two(self, capsys):
        assert main(["run", "rho_plus_demo", "--param", "bogus=1"]) == 2

    def test_bad_parameter_value_is_two(self, capsys):
        assert main(["run", "rho_plus_demo", "--param", "truncation_radius=abc"]) == 2

    def test_missing_config_file_is_two(self, capsys):
        assert main(["run", "--config", "/no/such/file.json"]) == 2

    def test_malformed_config_is_two(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 2

    BAD_CONFIGS = {
        "parameters_list": b'{"scenario": "rho_plus_demo", "parameters": [1, 2]}',
        "parameters_string": b'{"scenario": "rho_plus_demo", "parameters": "ab"}',
        "scenario_list": b'{"scenario": ["x"]}',
        "not_utf8": b'{"scenario": "rho_plus_demo"}\xff',
        "float_value": b'{"scenario": "rho_plus_demo", "parameters": {"truncation_radius": 2.9}}',
        "bool_value": b'{"scenario": "heisenberg_separation", "parameters": {"N": true}}',
    }

    @pytest.mark.parametrize("content", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
    def test_config_shape_error_is_two(self, tmp_path, content):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        proc = run_cli_process(["run", "--config", str(path)])
        assert proc.returncode == 2
        assert proc.stdout == ""
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err

    def test_config_scenario_conflict_is_two(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "heisenberg_separation"}))
        proc = run_cli_process(["run", "rho_plus_demo", "--config", str(path)])
        assert proc.returncode == 2
        assert proc.stdout == ""
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err

    def test_config_scenario_agreeing_with_the_argument_runs(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "heisenberg_separation"}))
        assert main(["run", "heisenberg_separation", "--config", str(path)]) == 0
        with_file = capsys.readouterr().out
        assert main(["run", "heisenberg_separation"]) == 0
        assert capsys.readouterr().out == with_file

    def test_config_string_value_converts_like_a_param(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps({"scenario": "heisenberg_separation", "parameters": {"N": "7"}})
        )
        assert main(["run", "--config", str(path)]) == 0
        assert "param\tN\t\t7" in capsys.readouterr().out

    @staticmethod
    def assert_one_error_line(capsys):
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err

    @pytest.mark.parametrize("k", ["1", "0", "-3"])
    def test_quotient_modulus_below_two_is_two(self, capsys, k):
        argv = ["distance", "--group", "Z", "--metric", f"quotient:{k}", "0", "3"]
        assert main(argv) == 2
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("depth", ["0", "-1"])
    def test_member_depth_below_one_is_two(self, capsys, depth):
        argv = ["member", "--bornology", "minimal", "--set", "{0}", "--depth", depth]
        assert main(argv) == 2
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize(
        "bornology,query",
        [
            ("minimal", "evens:abc"),
            ("minimal", "evens:1..x"),
            ("minimal", "{a}"),
            ("explicit:{x}", "{0}"),
            ("geom:1,3", "{0}"),
            ("geom:10,0", "{0}"),
        ],
    )
    def test_malformed_member_input_is_two(self, capsys, bornology, query):
        argv = ["member", "--bornology", bornology, "--set", query, "--depth", "3"]
        assert main(argv) == 2
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize(
        "scenario,param",
        [
            ("z_quotient_metric", "k=1"),
            ("heisenberg_separation", "N=0"),
            ("heisenberg_separation", "N=1"),
            ("rho_plus_demo", "truncation_radius=1"),
            # No triple would be sampled.
            ("heisenberg_pseudometric", "samples=0"),
            ("heisenberg_pseudometric", "samples=-3"),
            # Evidence that checks nothing.
            ("heisenberg_pseudometric", "radius=1"),
            ("powers_of_ten", "depth=0"),
            ("aj_family", "depth=0"),
            # A truncation that cannot reach the quotient diameter k // 2.
            ("z_quotient_metric", "k=7 truncation_radius=1"),
            ("z_quotient_metric", "truncation_radius=0"),
        ],
    )
    def test_scenario_parameter_error_is_two(self, capsys, scenario, param):
        argv = ["run", scenario]
        for p in param.split():
            argv += ["--param", p]
        assert main(argv) == 2
        self.assert_one_error_line(capsys)

    def test_bad_element_is_two_before_any_metric_is_built(self, capsys, monkeypatch):
        # Rejecting "0" must not wait on the metric: a word metric on Z^2000
        # compares 2000 unit vectors of 2000 ints.
        def no_metric(spec, text):
            raise AssertionError("metric built before the elements were parsed")

        monkeypatch.setattr(cli, "parse_metric", no_metric)
        argv = ["distance", "--group", "Z^2000", "--metric", "word", "0", "0"]
        assert main(argv) == 2
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize(
        "g,h,message",
        [
            ("0", "0", "'0': (0,) is not an element of free-abelian group"),
            ("(0,0)", "0", "'(0,0)': (0, 0) is not an element of free-abelian group"),
            ("x", "0", "'x': invalid literal for int() with base 10: 'x'"),
        ],
    )
    def test_bad_z_n_element_is_two_before_the_unit_vectors(
        self, capsys, monkeypatch, g, h, message
    ):
        # A Z^4000 spec would hold 4000 unit vectors of 4000 ints.
        def no_units(rank):
            raise AssertionError(f"unit vectors of Z^{rank} built")

        monkeypatch.setattr("coarsegroups.groups._units", no_units)
        for group in ("Z^4000", " Z^+4000 ", "Z^4_000"):
            assert main(["distance", "--group", group, "--metric", "word", g, h]) == 2
            err = capsys.readouterr().err.splitlines()
            assert err == [f"error: cannot parse element {message}"]

    def test_z_n_elements_of_the_right_length_are_measured(self, capsys):
        argv = ["distance", "--group", " Z^3 ", "--metric", "word", "(1,2,3)", "(0,0,-1)"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "7\n"
        assert main(["distance", "--group", "Z^0", "--metric", "word", "0", "0"]) == 2
        assert capsys.readouterr().err == "error: bad group 'Z^0'\n"

    @pytest.mark.parametrize(
        "group,metric,message",
        [
            ("Z^abc", "word", "bad group 'Z^abc'"),
            ("Z^0", "word", "bad group 'Z^0'"),
            ("Z/1", "word", "bad group 'Z/1'"),
            ("Z^", "word", "bad group 'Z^'"),
            ("Q", "word", "unknown group 'Q'; use Z, Z^n, Z/k, or heisenberg"),
            ("Z", "maxentry", "maxentry requires the heisenberg group"),
            ("Z", "entry12", "entry12 requires the heisenberg group"),
        ],
    )
    def test_group_and_metric_errors_word_for_word(self, capsys, group, metric, message):
        assert main(["distance", "--group", group, "--metric", metric, "0", "0"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    @pytest.mark.parametrize("var", ["COARSE_BALL_CAP", "COARSE_SET_CAP"])
    @pytest.mark.parametrize("value", ["abc", "1.5"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["distance", "--group", "Z", "--metric", "word", "0", "3"],
            ["run", "powers_of_ten"],
        ],
        ids=["distance", "run"],
    )
    def test_non_integer_cap_is_two(self, capsys, monkeypatch, var, value, argv):
        monkeypatch.setenv(var, value)
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and var in err[0], err

    def test_non_integer_cap_exit_code_of_the_process(self):
        argv = ["distance", "--group", "Z", "--metric", "word", "0", "3"]
        proc = run_cli_process(argv, COARSE_BALL_CAP="abc")
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: COARSE_BALL_CAP must be an integer, got 'abc'"
        ]

    PARSE_ERRORS = {
        "no_arguments": [],
        "missing_positional": ["distance", "--group", "Z", "--metric", "word", "0"],
        "non_integer_depth": ["member", "--bornology", "minimal", "--set", "{0}", "--depth", "x"],
        "unknown_subcommand": ["frobnicate"],
        "unknown_flag": ["list", "--bogus"],
    }

    @pytest.mark.parametrize("argv", PARSE_ERRORS.values(), ids=PARSE_ERRORS.keys())
    def test_parse_error_is_two(self, capsys, argv):
        assert main(argv) == 2
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("argv", PARSE_ERRORS.values(), ids=PARSE_ERRORS.keys())
    def test_parse_error_exit_code_of_the_process(self, argv):
        proc = run_cli_process(argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["member", "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: coarsegroups member")

    def test_budget_exceeded_is_three(self, capsys, monkeypatch):
        monkeypatch.setenv("COARSE_BALL_CAP", "10")
        assert main(["run", "heisenberg_pseudometric"]) == 3
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("R", [4, 96])
    def test_smith_ladder_difference_set_meets_the_set_cap(self, capsys, monkeypatch, R):
        # The last prefix holds all 2R + 1 points, so its difference set is
        # [-2R, 2R]: 4R + 1 elements, refused one element under that cap.
        argv = ["run", "smith_uniqueness_probe", "--param", f"R={R}"]
        assert main(argv) == 0
        uncapped = capsys.readouterr()
        monkeypatch.setenv("COARSE_SET_CAP", str(4 * R))
        assert main(argv) == 3
        assert capsys.readouterr() == (
            "",
            f"resource budget exceeded: set of {4 * R + 1} elements exceeded size cap {4 * R}\n",
        )
        monkeypatch.setenv("COARSE_SET_CAP", str(4 * R + 1))
        assert main(argv) == 0
        assert capsys.readouterr() == uncapped

    def test_separation_builds_no_ball_under_a_small_cap(self, capsys, monkeypatch):
        # Both its probes read max-entry distances and list no ball, so a
        # ball cap of 100 leaves the report as it is.
        assert main(["run", "heisenberg_separation"]) == 0
        uncapped = capsys.readouterr()
        monkeypatch.setenv("COARSE_BALL_CAP", "100")
        assert main(["run", "heisenberg_separation"]) == 0
        assert capsys.readouterr() == uncapped


class TestRun:
    def test_tsv_default_format(self, capsys):
        assert main(["run", "powers_of_ten"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("section\tkey\texpected\tobserved\tprovenance\tpass")

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(
            ["run", "rho_plus_demo", "--format", "json", "--output", str(path)]
        ) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(path.read_text())["scenario"] == "rho_plus_demo"

    def test_param_override(self, capsys):
        assert main(["run", "heisenberg_separation", "--param", "N=5"]) == 0
        out = capsys.readouterr().out
        assert "param\tN\t\t5" in out

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps({"scenario": "heisenberg_separation", "parameters": {"N": 9}})
        )
        assert main(["run", "--config", str(path), "--param", "N=4"]) == 0
        assert "param\tN\t\t4" in capsys.readouterr().out

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "rho_plus_demo", "extra": 1}))
        assert main(["run", "--config", str(path)]) == 2

    def test_byte_identical_reruns(self, capsys):
        main(["run", "smith_uniqueness_probe", "--format", "json"])
        first = capsys.readouterr().out
        main(["run", "smith_uniqueness_probe", "--format", "json"])
        assert capsys.readouterr().out == first


class TestList:
    def test_sorted_and_complete(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        names = [line.split("(")[0] for line in lines]
        assert names == sorted(SCENARIOS)

    def test_exact_output(self, capsys):
        # Derived from the scenario signatures; a change here changes the CLI.
        assert main(["list"]) == 0
        assert capsys.readouterr().out == (
            "aj_family(J: int = 2, depth: int = 3, seed_length: int = 4)\n"
            "heisenberg_pseudometric(radius: int = 4, samples: int = 1000)\n"
            "heisenberg_separation(N: int = 50)\n"
            "powers_of_ten(depth: int = 3, N: int = 50)\n"
            "rho_plus_demo(truncation_radius: int = 6)\n"
            "smith_uniqueness_probe(R: int = 24)\n"
            "z_quotient_metric(k: int = 5, truncation_radius: int = 50)\n"
        )


class TestDistance:
    def test_word(self, capsys):
        assert main(["distance", "--group", "Z", "--metric", "word", "0", "5"]) == 0
        assert capsys.readouterr().out.strip() == "5"

    def test_quotient(self, capsys):
        assert main(
            ["distance", "--group", "Z", "--metric", "quotient:5", "0", "3"]
        ) == 0
        assert capsys.readouterr().out.strip() == "2"

    @pytest.mark.parametrize("k,h", [(131, 65), (200, 100)])
    def test_quotient_is_exact_past_radius_64(self, capsys, k, h):
        # The largest distance of Z/k, k // 2, is past the CLI's radius 64.
        argv = ["distance", "--group", "Z", "--metric", f"quotient:{k}", "0", str(h)]
        assert main(argv) == 0
        assert capsys.readouterr() == (f"{h}\n", "")

    def test_closed_form_word_distance_builds_no_ball(self, capsys, monkeypatch):
        # Read off the breadth-first table, this distance needs a ball of
        # radius 10 (221 elements), past the cap: exit 3.
        monkeypatch.setenv("COARSE_BALL_CAP", "10")
        argv = ["distance", "--group", "Z^2", "--metric", "word", "(0,0)", "(5,5)"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "10\n"

    def test_heisenberg_word_distance_builds_no_ball(self, capsys, monkeypatch):
        monkeypatch.setenv("COARSE_BALL_CAP", "10")
        argv = ["distance", "--group", "H", "--metric", "word", "(0,0,0)"]
        for h, out in [("(2,2,0)", "4\n"), ("(0,0,256)", "64\n"), ("(0,0,257)", "HORIZON\n")]:
            assert main([*argv, h]) == 0
            assert capsys.readouterr() == (out, "")

    def test_a_z_n_word_distance_keeps_no_unit_vectors(self, capsys):
        # The unit vectors of Z^1500 take about 17 MiB: 2.25 million ints,
        # more than COARSE_SET_CAP (10^6) lets the process keep.  The spec
        # holds its own, so once the call returns nothing keeps them alive.
        zero = "(" + ",".join("0" * 1500) + ")"
        assert main(["distance", "--group", "Z^2", "--metric", "word", "(0,0)", "(0,1)"]) == 0
        gc.collect()
        tracemalloc.start()
        try:
            assert main(["distance", "--group", "Z^1500", "--metric", "word", zero, zero]) == 0
            gc.collect()
            alive = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr() == ("1\n0\n", "")
        assert alive < 1 << 20

    def test_maxentry(self, capsys):
        assert main(
            ["distance", "--group", "H", "--metric", "maxentry", "(7,0,1)", "(8,1,1)"]
        ) == 0
        assert capsys.readouterr().out.strip() == "1"

    @pytest.mark.parametrize("k", range(2, 13))
    def test_cyclic_word_sweep(self, capsys, k):
        # h runs over unreduced integers; every answer is min(r, k - r) for
        # r = h - g mod k and equals a BFS over the explicit Cayley graph.
        spec = parse_group(f"Z/{k}")
        adjacency = cayley_adjacency(spec, [(i,) for i in range(k)])
        argv = ["distance", "--group", f"Z/{k}", "--metric", "word"]
        for g in range(k):
            from_g = bfs_distances(adjacency, (g,))
            for h in range(-30, 31):
                assert main([*argv, str(g), str(h)]) == 0
                r = (h - g) % k
                assert capsys.readouterr().out == f"{min(r, k - r)}\n"
                assert min(r, k - r) == from_g[(h % k,)]
            assert main([*argv, f"{g} mod {k}", "0"]) == 0
            assert capsys.readouterr().out == f"{min(g, k - g)}\n"

    @pytest.mark.parametrize("text", ["3 mod 5", "3 mod 7 mod 7", "(3)", "x"])
    def test_cyclic_bad_element_is_two(self, capsys, text):
        assert main(["distance", "--group", "Z/7", "--metric", "word", "0", text]) == 2
        TestExitCodes.assert_one_error_line(capsys)


class TestMember:
    def test_member_with_cover(self, capsys):
        assert main(
            [
                "member",
                "--bornology", "geom:10,6",
                "--set", "{0,10,100}",
                "--depth", "1",
            ]
        ) == 0
        assert "member (cover indices: 1)" in capsys.readouterr().out

    def test_not_covered(self, capsys):
        assert main(
            [
                "member",
                "--bornology", "geom:10,6",
                "--set", "evens:0..50",
                "--depth", "3",
            ]
        ) == 0
        assert "not covered at depth 3" in capsys.readouterr().out

    def test_not_covered_names_the_sets_drawn(self, capsys):
        # explicit:{0} streams 29 sets in all (levels 0-8 hold 1, 0, 2, 2,
        # 2, 3, 5, 6, 8), so no deeper prefix was examined.
        argv = ["member", "--bornology", "explicit:{0}", "--set", "{5,6}", "--depth", "1000000"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "not covered at depth 29\n"

    def test_singleton_axiom(self, capsys):
        assert main(
            [
                "member",
                "--bornology", "geom:10,2",
                "--set", "{77}",
                "--depth", "1",
            ]
        ) == 0
        assert "singleton axiom" in capsys.readouterr().out

    def test_answers_before_a_capped_level(self, capsys, monkeypatch):
        # geom:10,6 has 7 elements; its level 1 (seed + seed) passes the cap.
        monkeypatch.setenv("COARSE_SET_CAP", "7")
        argv = ["member", "--bornology", "geom:10,6", "--depth", "40", "--set"]
        assert main([*argv, "{0,10,100}"]) == 0
        assert "member (cover indices: 1)" in capsys.readouterr().out
        assert main([*argv, "{1,3}"]) == 3
        assert "budget" in capsys.readouterr().err

    def test_empty_set(self, capsys):
        argv = ["member", "--bornology", "geom:10,6", "--set", "{}", "--depth", "3"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "member (empty set)\n"

    def test_explicit_bornology(self, capsys):
        assert main(
            [
                "member",
                "--bornology", "explicit:{2,4}",
                "--set", "{2,4}",
                "--depth", "1",
            ]
        ) == 0
        assert "member" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "query,code",
        [
            ("evens:0..18", 0),
            ("evens:1..20", 0),
            ("evens:-19..0", 0),
            ("{0,1,2,3,4,5,6,7,8,9}", 0),
            ("evens:0..20", 3),
            ("evens:-2..19", 3),
            ("evens:0..10000000000", 3),
            ("{0,1,2,3,4,5,6,7,8,9,10}", 3),
        ],
    )
    def test_query_set_respects_the_set_cap(self, capsys, monkeypatch, query, code):
        # Each passing query holds exactly 10 elements, each refused one 11 or more.
        monkeypatch.setenv("COARSE_SET_CAP", "10")
        argv = ["member", "--bornology", "minimal", "--set", query, "--depth", "3"]
        assert main(argv) == code
        captured = capsys.readouterr()
        if code == 0:
            assert captured.out == "not covered at depth 3\n"
        else:
            assert captured.out == ""
            assert captured.err.startswith("resource budget exceeded: set of ")


class TestReusedParser:
    """`main` shares one parser across calls: no call may see another's input."""

    def test_param_list_does_not_leak(self, capsys):
        assert main(["run", "smith_uniqueness_probe", "--param", "R=8"]) == 0
        assert "param\tR\t\t8\t" in capsys.readouterr().out
        assert main(["run", "smith_uniqueness_probe"]) == 0
        assert "param\tR\t\t24\t" in capsys.readouterr().out

    def test_bad_argv_between_good_calls(self, capsys):
        good = ["distance", "--group", "Z^2", "--metric", "word", "(0,0)", "(5,-3)"]
        assert main(good) == 0
        first = capsys.readouterr()
        assert main(["distance", "--group", "Z", "--metric", "word", "--bogus", "1"]) == 2
        capsys.readouterr()
        assert main(good) == 0
        assert capsys.readouterr() == first == ("8\n", "")

    def test_set_cap_read_on_every_call(self, capsys, monkeypatch):
        # geom:10,6 has 7 elements; 20 = 10 + 10 is first covered in level 1,
        # whose set seed + seed passes a set cap of 7.
        argv = ["member", "--bornology", "geom:10,6", "--set", "{0,20}", "--depth", "40"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "member (cover indices: 1, 6)\n"
        monkeypatch.setenv("COARSE_SET_CAP", "7")
        assert main(argv) == 3
        assert "budget" in capsys.readouterr().err
        monkeypatch.delenv("COARSE_SET_CAP")
        assert main(argv) == 0
        assert capsys.readouterr().out == "member (cover indices: 1, 6)\n"

    # The README's distance and member examples, interleaved with more of the
    # same kinds: every group and metric, every bornology, HORIZON, the
    # singleton axiom, the empty set and one rejected input.
    COMMANDS = [
        ["distance", "--group", "H", "--metric", "maxentry", "(7,0,1)", "(8,1,1)"],
        ["member", "--bornology", "geom:10,6", "--set", "{0,10,100}", "--depth", "1"],
        ["distance", "--group", "Z", "--metric", "quotient:5", "0", "3"],
        ["member", "--bornology", "geom:10,6", "--set", "evens:0..50", "--depth", "3"],
        ["distance", "--group", "Z", "--metric", "word", "0", "5"],
        ["member", "--bornology", "minimal", "--set", "{0,1}", "--depth", "3"],
        ["distance", "--group", "Z^2", "--metric", "word", "(0,0)", "(5,-3)"],
        ["member", "--bornology", "geom:2,8", "--set", "{1,2,3}", "--depth", "10"],
        ["distance", "--group", "Z^3", "--metric", "word", "(1,2,3)", "(-1,0,4)"],
        ["member", "--bornology", "geom:10,6", "--set", "{}", "--depth", "3"],
        ["distance", "--group", "Z/7", "--metric", "word", "0", "3 mod 7"],
        ["member", "--bornology", "explicit:{2,4}", "--set", "{2,4}", "--depth", "1"],
        ["distance", "--group", "H", "--metric", "word", "(0,0,0)", "(1,1,0)"],
        ["member", "--bornology", "geom:10,2", "--set", "{77}", "--depth", "1"],
        ["distance", "--group", "H", "--metric", "entry12", "(1,2,3)", "(4,5,6)"],
        ["member", "--bornology", "minimal", "--set", "evens:-4..4", "--depth", "20"],
        ["distance", "--group", "Z^2", "--metric", "word", "(0,0)", "(70,0)"],
        ["member", "--bornology", "geom:3,5", "--set", "{-3,7}", "--depth", "17"],
        ["distance", "--group", "Z", "--metric", "quotient:3", "-4", "10"],
        ["member", "--bornology", "minimal", "--set", "{0}", "--depth", "0"],
    ]

    def test_in_process_matches_fresh_processes(self, capsys):
        in_process = []
        for argv in self.COMMANDS:
            rc = main(argv)
            out, err = capsys.readouterr()
            in_process.append((rc, out, err))
        fresh = [
            (proc.returncode, proc.stdout, proc.stderr)
            for proc in map(run_cli_process, self.COMMANDS)
        ]
        assert in_process == fresh
        assert {rc for rc, _, _ in fresh} == {0, 2}


class TestSharedBases:
    """`main` shares one basis per bornology and cap setting across calls;
    every answer must be the one a freshly built basis gives."""

    BORNOLOGIES = ["geom:10,6", "geom:2,8", "geom:3,5", "geom:5,4", "geom:4,6", "minimal"]
    SETS = ["{0,10,100}", "evens:0..50", "{1,2,3}", "{-3,7}", "{5}"]
    DEPTHS = [1, 4, 17, 41]

    @staticmethod
    def fresh_answer(bornology, text, depth):
        """The answer of a basis built for this query alone, printed as
        `cmd_member` prints it."""
        Z = GroupSpec.free_abelian(1)
        if bornology == "minimal":
            basis = MinimalBasis(Z)
        else:
            base, length = (int(p) for p in bornology[len("geom:"):].split(","))
            basis = GeneratedBasis(Z, [GeometricSeed(base, length)])
        query = parse_int_set(text)
        verdict = member(basis, query, depth)
        if not verdict.is_member:
            return f"not covered at depth {verdict.depth_examined}\n"
        if verdict.via_singleton_axiom:
            return "member (singleton axiom)\n"
        return f"member (cover indices: {', '.join(map(str, verdict.cover))})\n"

    def test_same_answers_as_fresh_bases(self, capsys):
        queries = list(itertools.product(self.BORNOLOGIES, self.SETS, self.DEPTHS))
        random.Random(14).shuffle(queries)
        for bornology, text, depth in queries:
            argv = ["member", "--bornology", bornology, "--set", text, "--depth", str(depth)]
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert out == self.fresh_answer(bornology, text, depth), (bornology, text, depth)
        assert cli.shared_basis.cache_info().currsize == len(self.BORNOLOGIES)

    def test_caps_are_in_the_key(self, capsys, monkeypatch):
        # Depth 41 draws all of geom:10,6's levels 0-3.  The largest set of
        # level 2 has 154 elements and of level 3 505, so a set cap of 200
        # trips at level 3: a basis shared across caps would answer from
        # the level built without a cap.
        argv = ["member", "--bornology", "geom:10,6", "--set", "evens:0..50", "--depth", "41"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert first == self.fresh_answer("geom:10,6", "evens:0..50", 41)
        monkeypatch.setenv("COARSE_SET_CAP", "200")
        for _ in range(2):
            # The failed level committed nothing, so the retry fails alike.
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("resource budget exceeded: set of ")
        monkeypatch.delenv("COARSE_SET_CAP")
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_identical_member_calls_share_one_basis(self, capsys):
        argv = ["member", "--bornology", "geom:10,6", "--set", "{0,10}", "--depth", "3"]
        assert main(argv) == 0
        assert main(list(argv)) == 0
        info = cli.shared_basis.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        assert capsys.readouterr().out == "member (cover indices: 1)\n" * 2

    @staticmethod
    def shared(text):
        """The process's shared basis for the bornology `text` names."""
        return cli.shared_basis(bornology_description(text), ball_size_cap(), set_size_cap())

    def test_one_basis_per_bornology(self):
        shared = self.shared
        assert shared("geom:10,6") is shared(" geom: 10, 6 ")
        assert shared("minimal") is shared("minimal")
        assert shared("explicit:{2,4}") is shared("explicit:{4, 2}")
        assert shared("geom:10,6") is not shared("geom:10,5")

    def test_at_most_eight_bases(self):
        texts = [f"geom:{base},3" for base in range(2, 11)]
        assert len(texts) == 9
        bases = [self.shared(text) for text in texts]
        assert len({id(b) for b in bases}) == 9
        assert cli.shared_basis.cache_info().currsize == cli.SHARED_BASES == 8

    def test_parse_errors_cache_nothing(self):
        for text in ["geom:1,6", "geom:10", "bogus", "explicit:{x}"]:
            with pytest.raises(ConfigError):
                self.shared(text)
        assert cli.shared_basis.cache_info().currsize == 0

    def test_rejected_lines_evict_no_warm_basis(self, capsys):
        # Eight warm bases fill the cache; geom:2,3 is the least recently
        # used.  Each rejected line names a new bornology, so a basis looked
        # up before the line is validated would evict geom:2,3.
        def query(base, text="{0}", depth="1"):
            argv = ["--bornology", f"geom:{base},3", "--set", text, "--depth", depth]
            return main(["member", *argv])

        for base in range(2, 10):
            assert query(base) == 0
        warm = cli.shared_basis.cache_info()
        assert warm.currsize == cli.SHARED_BASES == 8
        assert query(11, text="{x}") == 2
        assert query(12, depth="0") == 2
        assert cli.shared_basis.cache_info() == warm
        assert query(2) == 0
        after = cli.shared_basis.cache_info()
        assert (after.hits, after.misses) == (warm.hits + 1, warm.misses)
        out = capsys.readouterr().out
        assert out == "member (cover indices: 1)\n" * 9


def _dispatch_sweep(config):
    """Command lines for `TestSubcommandDispatch`: help at both levels, no
    arguments, unknown commands, option abbreviations, `--opt=value`, `--`,
    missing, extra and empty positionals, repeated and non-integer options,
    a non-ASCII digit after "-", and the README's commands (`config` is a
    path to the README's JSON block)."""
    sweep = [
        [], ["-h"], ["--help"], ["--he"], ["-x"], ["--"], ["frobnicate"], ["dist"],
        ["-h", "distance"], ["--", "distance"], ["list"], ["list", "-h"], ["list", "--bogus"],
        ["list", "extra"], ["list", "--"], ["run", "-h"], ["run"], ["run", "nope"],
        ["run", "powers_of_ten", "--form", "json"], ["run", "powers_of_ten", "--format", "xml"],
        ["run", "--param"], ["run", "smith_uniqueness_probe", "--param", "R=8", "--param", "R=9"],
        ["run", "heisenberg_separation", "--param", "N=20", "--format", "json"],
        ["run", "--config", config, "--format", "tsv"],
        ["distance", "--group", "H", "--metric", "maxentry", "(7,0,1)", "(8,1,1)"],
        ["distance", "--group", "Z", "--metric", "quotient:5", "0", "3"],
        ["distance", "--group", "Z/7", "--metric", "word", "2", "12 mod 7"],
        ["distance", "--group", "H", "--metric", "word", "(0,0,0)", "(0,0,256)"],
        ["distance", "-h"], ["distance", "--h"], ["distance", "--group", "Z", "-h", "0"],
        ["distance", "--group", "Z", "--metric", "word", "-²", "3"],
        ["distance", "--group", "Z", "--metric", "word", "", "3"], ["run", ""],
        ["run", "--format", "json", "powers_of_ten"],
        ["member", "--bornology", "minimal", "--set", "{0}", "--depth", "x", "--depth", "2"],
        ["member", "--bornology", "minimal", "--set", "{0}", "--depth", " 3"],
    ]
    for flag in ["--group", "--grou", "--gr", "--g"]:
        sweep.append(["distance", flag, "Z^2", "--metric", "word", "(0,0)", "(5,-3)"])
    for group, g, h in [("Z", "-3", "5"), ("H", "(0,0,0)", "(1,1,0)"), ("Z", "--", "5")]:
        word = ["--metric", "word"]
        sweep += [
            ["distance", "--group", group, *word, g, h],
            ["distance", f"--group={group}", "--metric=word", g, h],
            ["distance", "--group", group, *word, "--", g, h],
            ["distance", g, h, *word, "--group", group],
            ["distance", "--group", group, *word, g],
            ["distance", "--group", group, *word, g, h, "extra"],
            ["distance", "--group", group, *word, g, h, "--bogus"],
            ["distance", "--group", "Z/7", "--group", group, *word, g, h],
            ["distance", *word, g, h],
        ]
    for bornology, query, depth in [
        ("geom:10,6", "{0,10,100}", "1"),
        ("geom:10,6", "evens:0..50", "3"),
        ("minimal", "{0}", "0"),
    ]:
        flags = ["--bornology", bornology, "--set", query]
        sweep += [
            ["member", *flags, "--depth", depth],
            ["member", *flags, "--depth", depth, "--depth", "2"],
            ["member", *flags, "--depth", "x"],
            ["member", *flags],
            ["member", *flags, "--depth", depth, "extra"],
            ["member", "--born", bornology, "--se", query, "--dep", depth],
            ["member", f"--bornology={bornology}", f"--set={query}", f"--depth={depth}"],
            ["member", "--depth", "-3", *flags],
            ["member", *flags, "--depth", depth, "--", "x"],
        ]
    return sweep


class TestSubcommandDispatch:
    """`main` parses a command line that starts with a subcommand name with
    that subcommand's parser; everything else goes through the top-level one."""

    @staticmethod
    def outcome(capsys, argv):
        """(exit code, stdout, stderr) of `main(argv)`; help exits are
        ("exit", code)."""
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = ("exit", exc.code)
        return (rc, *capsys.readouterr())

    def test_same_outcome_as_the_top_level_parser(self, capsys, monkeypatch, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text('{"scenario": "heisenberg_separation", "parameters": {"N": 20}}')
        sweep = _dispatch_sweep(str(config))
        direct = [self.outcome(capsys, argv) for argv in sweep]
        monkeypatch.setattr(cli, "parse_args", cli.build_parsers()[0].parse_args)
        via_top = [self.outcome(capsys, argv) for argv in sweep]
        for argv, a, b in zip(sweep, direct, via_top):
            assert a == b, argv
        assert {rc for rc, _, _ in direct} == {0, 2, ("exit", 0)}

    def test_named_subcommands_skip_the_top_level_parser(self, capsys, monkeypatch):
        top = cli.build_parsers()[0]
        monkeypatch.setattr(top, "parse_args", lambda argv: pytest.fail(f"parsed {argv}"))
        assert main(["distance", "--group", "Z", "--metric", "word", "0", "3"]) == 0
        assert main(["member", "--bornology", "minimal", "--set", "{0}", "--depth", "1"]) == 0
        assert capsys.readouterr().out == "3\nmember (cover indices: 1)\n"


# Tokens for `command_lines`: every subcommand and scenario name, every
# option name with its abbreviations and `=` forms, help and `--`, and
# values that argparse reads in its own way: "-" alone, negative numbers, a
# superscript digit, the empty string, spaces, underscores and choices.
OPTIONS = sorted({name for _, _, args in cli.COMMANDS.values() for name in args if name[0] == "-"})
VALUES = ["-", "-3", "-1.5", "-²", "", " 3 ", "3_0", "3", "json", "tsv", "xml"]
TOKENS = sorted(
    {*cli.COMMANDS, *SCENARIOS, "-h", "--help", "--", *VALUES}
    | {
        form
        for name in OPTIONS
        for end in range(3, len(name) + 1)
        for form in (name[:end], f"{name[:end]}=3", f"{name[:end]}=json")
    }
)


@st.composite
def command_lines(draw):
    """A subcommand name, then, in any order, most of its arguments (each
    option name with a value after it) and a few more pieces: an option
    name of the subcommand with a value, or any one token."""
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    arguments = cli.COMMANDS[name][2]
    value = st.sampled_from(VALUES)
    pieces = [
        (arg, draw(value)) if arg[0] == "-" else (draw(value),)
        for arg in arguments
        if draw(st.integers(0, 9))
    ]
    own = [arg for arg in arguments if arg[0] == "-"] or OPTIONS
    extra = st.one_of(st.tuples(st.sampled_from(own), value), st.tuples(st.sampled_from(TOKENS)))
    pieces += draw(st.lists(extra, max_size=2))
    return [name, *(t for piece in draw(st.permutations(pieces)) for t in piece)]


class TestReader:
    """`read_args` reads a command line only as argparse would."""

    @given(command_lines())
    @settings(max_examples=500, deadline=None)
    def test_same_namespace_as_argparse(self, argv):
        args = cli.read_args(argv)
        if args is not None:
            parser = cli.build_parsers()[1][argv[0]]
            assert vars(args) == vars(parser.parse_args(argv[1:]))

    def test_reads_the_well_formed_lines(self):
        # The positive control for the test above, which checks nothing on
        # a line the reader turns down.
        for argv in TestReusedParser.COMMANDS + [["list"], ["run"], ["run", "--param", "R=8"]]:
            args = cli.read_args(argv)
            assert args is not None, argv
            assert vars(args) == vars(cli.build_parsers()[1][argv[0]].parse_args(argv[1:]))

    @pytest.mark.parametrize("argv", [
        ["distance", "-h"],
        ["distance", "--group", "Z", "--metric", "word", "--", "0", "3"],
        ["distance", "--group=Z", "--metric", "word", "0", "3"],
        ["distance", "--gr", "Z", "--metric", "word", "0", "3"],
        ["distance", "--group", "Z", "--metric", "word", "-²", "3"],
        ["distance", "--group", "Z", "--metric", "word", "-1.5", "3"],
        ["distance", "--group", "Z", "--metric", "word", "0"],
        ["distance", "--group", "Z", "--metric", "word", "0", "3", "4"],
        ["distance", "--metric", "word", "0", "3"],
        ["member", "--bornology", "minimal", "--set", "{0}", "--depth", "x", "--depth", "2"],
        ["run", "--format", "xml"],
        ["run", "--param"],
        ["frobnicate"],
        [],
    ])
    def test_leaves_the_rest_to_argparse(self, argv):
        assert cli.read_args(argv) is None
