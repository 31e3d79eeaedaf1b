"""CLI behavior: subcommands, formats, exit codes, and stdin piping."""

import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from homflypt import BivarLaurent, SplitMix64, T, Z, close_braid, parse_braid
from homflypt.links import MAX_STRANDS
from homflypt import cli
from homflypt.cli import EXIT_FAILED, EXIT_INPUT, EXIT_OK, EXIT_RESOURCE, main


SRC = str(Path(__file__).resolve().parents[1] / "src")
UNLINK_1500 = {"components": [[]] * 1500, "crossings": []}


def python(args, **kwargs) -> subprocess.Popen:
    """Start `python args` in a fresh interpreter that imports the package from src."""
    return subprocess.Popen([sys.executable, *args], env=dict(os.environ, PYTHONPATH=SRC), **kwargs)


def run_cli(argv, stdin_text=None, monkeypatch=None):
    out = io.StringIO()
    if stdin_text is not None:
        assert monkeypatch is not None
        fake = io.StringIO(stdin_text)
        fake.isatty = lambda: False
        monkeypatch.setattr("sys.stdin", fake)
    code = main(argv, out=out)
    return code, out.getvalue()


class TestHomfly:
    def test_unknot_text(self):
        code, text = run_cli(["homfly", "--catalog", "unknot"])
        assert code == EXIT_OK
        assert "homfly: 1" in text

    def test_hopf_braid_text(self):
        code, text = run_cli(["homfly", "--braid", "strands=2; 1 1"])
        assert code == EXIT_OK
        assert "p[g=0] (z^-1): t^-1 - t^-3" in text
        assert "p[g=1] (z^1): t^-1" in text

    def test_json_schema(self):
        code, text = run_cli(["homfly", "--catalog", "trefoil", "--format", "json"])
        assert code == EXIT_OK
        obj = json.loads(text)
        assert set(obj) == {
            "link", "components", "writhe", "total_linking", "framed", "homfly", "h", "p",
        }
        assert obj["components"] == 1 and obj["writhe"] == 3
        # p[g=0] = 2 t^-2 - t^-4 in triple form
        assert obj["p"]["0"] == [[-4, -1, 1], [-2, 2, 1]]

    def test_parse_error_exit(self, capsys):
        code, _ = run_cli(["homfly", "--braid", "strands=2; 99"])
        assert code == EXIT_INPUT
        assert "out of range" in capsys.readouterr().err

    def test_strand_count_above_the_limit_is_bad_input(self, monkeypatch, capsys):
        # refused from the header, before a closure allocates per strand
        for strands in ("999999999", "100001", "9" * 5000):
            braid = f"strands={strands}; 1 -1"
            for argv, stdin in (
                (["homfly", "--braid", braid], None),
                (["verify", "prop31", "--braid", braid], None),
                (["verify", "prop31"], braid + "\n"),
            ):
                code, text = run_cli(argv, stdin_text=stdin, monkeypatch=monkeypatch)
                assert code == EXIT_INPUT and text == "", argv
                assert capsys.readouterr().err == (
                    "error: strand count must be at most 100000 (at offset 8)\n"
                )
        code, text = run_cli(["verify", "prop31", "--braid", "strands=100000;"])
        assert code == EXIT_OK and text.endswith("1/1 checks passed\n")

    def test_unknown_catalog_name(self, capsys):
        code, _ = run_cli(["homfly", "--catalog", "nope"])
        assert code == EXIT_INPUT
        assert "unknown catalog link" in capsys.readouterr().err

    def test_resource_limit_exit(self, capsys):
        code, _ = run_cli(["homfly", "--catalog", "borromean", "--max-nodes", "2"])
        assert code == EXIT_RESOURCE
        assert "exceeded" in capsys.readouterr().err

    def test_env_max_nodes(self, monkeypatch):
        # --max-nodes is the only source of the budget: SKEIN_MAX_NODES in
        # the environment changes nothing
        _, expected = run_cli(["homfly", "--catalog", "borromean"])
        monkeypatch.setenv("SKEIN_MAX_NODES", "2")
        assert run_cli(["homfly", "--catalog", "borromean"]) == (EXIT_OK, expected)

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("SKEIN_MAX_NODES", "2")
        code, _ = run_cli(["homfly", "--catalog", "borromean", "--max-nodes", "100000"])
        assert code == EXIT_OK

    def test_deep_braid_is_a_resource_error(self, tmp_path, capsys):
        # the engine braids a diagram file and traces it as it traces the
        # braid, in `verify` as in `homfly`: the T(2,120) closure prints
        # what the braid prints
        text = "strands=2; " + " ".join(["1"] * 120)
        torus = close_braid(parse_braid(text))
        path = tmp_path / "t2_120.json"
        path.write_text(json.dumps(torus.to_json_dict()))
        for command in (["homfly"], ["verify", "thm14"]):
            file_code, file_text = run_cli([*command, "--file", str(path)])
            braid_code, braid_text = run_cli([*command, "--braid", text])
            assert file_code == braid_code == EXIT_OK
            assert file_text.replace(str(path), "L") == braid_text.replace(text, "L"), command
        # beside 30 split two-crossing unlinks (descending, so their skein
        # resolution does not branch) it has 62 Seifert circles, more than
        # its 180 crossings allow to braid, so it is resolved by skein, and
        # the torus link's 120 crossings nest the recursion past Python's
        # stack limit
        unlinks = "strands=60;" + "".join(f" {k} -{k}" for k in range(1, 60, 2))
        wide = torus.disjoint_union(close_braid(parse_braid(unlinks)))
        path.write_text(json.dumps(wide.to_json_dict()))
        capsys.readouterr()
        for command in (["homfly"], ["verify", "thm14"]):
            code, _ = run_cli([*command, "--file", str(path)])
            assert code == EXIT_RESOURCE, command
            err = capsys.readouterr().err
            assert err.startswith("error: maximum recursion depth exceeded"), command
            assert err.count("\n") == 1 and "Traceback" not in err

    def test_file_unlink_prints_the_braid_output(self, tmp_path):
        # 1500 crossing-free components are braided to strands=1500;, whose
        # unlink value is written out without recursion, and print what it
        # prints
        path = tmp_path / "unlink1500.json"
        path.write_text(json.dumps(UNLINK_1500))
        file_code, file_text = run_cli(["homfly", "--file", str(path)])
        braid_code, braid_text = run_cli(["homfly", "--braid", "strands=1500;"])
        assert file_code == braid_code == EXIT_OK
        assert file_text.split("\n", 1)[1] == braid_text.split("\n", 1)[1]

    def test_long_braid_matches_the_torus_recurrence(self):
        # a braid word goes to the Hecke trace engine, which does not recurse;
        # P(T(2,n)) = z t^-1 P(T(2,n-1)) + t^-2 P(T(2,n-2)) from the skein relation
        previous, value = (T - T**-1) * Z**-1, BivarLaurent.one()
        for _ in range(2, 121):
            previous, value = value, (Z * value + T**-1 * previous) * T**-1
        code, text = run_cli(
            ["homfly", "--braid", "strands=2; " + " ".join(["1"] * 120), "--format", "json"]
        )
        assert code == EXIT_OK
        assert json.loads(text)["homfly"] == value.to_quadruples()

    def test_max_nodes_below_one_is_bad_input(self, capsys):
        for argv in (
            ["homfly", "--catalog", "unknot", "--max-nodes", "0"],
            ["homfly", "--catalog", "unknot", "--max-nodes", "-3"],
            ["verify", "all", "--max-nodes", "0"],
        ):
            code, text = run_cli(argv)
            assert code == EXIT_INPUT and text == ""
            err = capsys.readouterr().err
            assert err.startswith("error: --max-nodes must be at least 1") and err.count("\n") == 1
        code, _ = run_cli(["homfly", "--catalog", "unknot", "--max-nodes", "1"])
        assert code == EXIT_OK

    def test_parser_is_built_once(self, monkeypatch):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        try:
            for argv in (["homfly", "--catalog", "hopf+"], ["catalog", "--format", "json"]):
                assert run_cli(argv)[0] == EXIT_OK
            code, text = run_cli(["homfly", "--catalog", "unknot"])
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1
        assert code == EXIT_OK and "homfly: 1" in text

    def test_two_link_flags_rejected(self, capsys):
        code, _ = run_cli(["homfly", "--catalog", "unknot", "--braid", "strands=1;"])
        assert code == EXIT_INPUT
        capsys.readouterr()

    def test_file_input(self, tmp_path):
        from homflypt import catalog as cat

        path = tmp_path / "hopf.json"
        path.write_text(json.dumps(cat.diagram("hopf+").to_json_dict()))
        code, text = run_cli(["homfly", "--file", str(path)])
        assert code == EXIT_OK
        assert "p[g=0] (z^-1): t^-1 - t^-3" in text

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"components": [[[0, "x"]]], "crossings": []}')
        code, _ = run_cli(["homfly", "--file", str(path)])
        assert code == EXIT_INPUT
        assert "components[0][0]" in capsys.readouterr().err

    def test_non_planar_file_is_bad_input(self, tmp_path, capsys):
        path = tmp_path / "virtual.json"
        path.write_text(
            json.dumps(
                {
                    "components": [[[0, "o"], [1, "u"], [0, "u"], [1, "o"]]],
                    "crossings": [
                        {"id": 0, "sign": 1, "over": [0, 0], "under": [0, 2]},
                        {"id": 1, "sign": 1, "over": [0, 3], "under": [0, 1]},
                    ],
                }
            )
        )
        for command in ("homfly", "verify thm14"):
            code, text = run_cli([*command.split(), "--file", str(path)])
            assert code == EXIT_INPUT and text == ""
            err = capsys.readouterr().err
            assert err.startswith("error: $: the signed Gauss code is not planar")
            assert err.count("\n") == 1

    def test_non_integers_are_bad_input(self, tmp_path, capsys):
        # JSON true passes isinstance(x, int), and int() reads 1_0 and
        # non-ASCII digits; tests/test_links.py covers every JSON field
        path = tmp_path / "kink.json"
        path.write_text(
            '{"components": [[[true, "o"], [true, "u"]]], "crossings":'
            ' [{"id": true, "sign": true, "over": [0, 0], "under": [0, 1]}]}'
        )
        for link in (["--file", str(path)], ["--braid", "strands=12; 1_0"],
                     ["--braid", "strands=\u0663; 1 2"]):
            code, text = run_cli(["homfly", *link])
            assert code == EXIT_INPUT and text == ""
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, link

    def test_usage_errors_are_bad_input(self, capsys):
        # argparse alone would exit 2, the exit code of a resource limit
        for argv in (
            ["homfly", "--max-nodes", "abc"],
            ["verify", "nope"],
            ["homfly", "--catalog", "unknot", "--bogus"],
            ["verify", "thm13", "--format", "xml"],
            ["random", "--count", "1.5"],
            ["frobnicate"],
            [],
        ):
            code, text = run_cli(argv)
            assert code == EXIT_INPUT and text == "", argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
            assert "--help" in err, argv

    def test_help_exits_zero(self, capsys):
        for argv in (["--help"], ["verify", "--help"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv, out=io.StringIO())
            assert exit_info.value.code == 0
            assert capsys.readouterr().out.startswith("usage: homflypt")


class TestProcess:
    def test_closed_pipe_prints_no_traceback(self):
        for argv in (
            ["random", "--count", "100000"],
            ["homfly", "--braid", "strands=2; " + " ".join(["1"] * 600), "--format", "json"],
        ):
            proc = python(["-m", "homflypt", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            proc.stderr.close()
            assert proc.wait(timeout=60) == EXIT_INPUT, argv
            assert b"Traceback" not in err and b"Error" not in err, (argv, err)

    def test_reimports_leave_one_laurent_class(self):
        # The benchmark re-imports the package for each block; a cache that
        # holds a class of an old import (a typing alias, say) keeps every
        # copy alive.  A subprocess keeps this test's imports to itself.
        script = textwrap.dedent(
            """
            import gc, io, sys
            for _ in range(6):
                for name in [m for m in sys.modules if m.startswith("homflypt")]:
                    del sys.modules[name]
                import homflypt.cli
                for argv in (["homfly", "--catalog", "borromean"],
                             ["verify", "skeinF", "--catalog", "hopf+"]):
                    assert homflypt.cli.main(argv, out=io.StringIO()) == 0
            gc.collect()
            print(sum(isinstance(o, type) and o.__name__ == "BivarLaurent"
                      for o in gc.get_objects()))
            """
        )
        proc = python(["-c", script], stdout=subprocess.PIPE, text=True)
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0 and out.strip() == "1"

    def test_file_unlink_keeps_only_the_powers_asked_for(self, tmp_path):
        # keeping every power of t - t^-1 up to the 1500th takes about
        # 300 MiB; the one power the leaf asks for 20 MiB, as the braid does.
        # The child reads its own peak: a child's ru_maxrss also counts the
        # memory of the process it was forked from.
        path = tmp_path / "unlink1500.json"
        path.write_text(json.dumps(UNLINK_1500))
        script = textwrap.dedent(
            """
            import sys
            from homflypt.cli import main
            code = main(["homfly", "--file", sys.argv[1]])
            peak = [line for line in open("/proc/self/status") if line.startswith("VmHWM:")]
            print(peak[0].split()[1], file=sys.stderr)
            sys.exit(code)
            """
        )
        proc = python(["-c", script, str(path)], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == EXIT_OK
        assert int(err) < 100 * 1024  # KiB


class TestVerify:
    def test_thm14_catalog(self):
        code, text = run_cli(["verify", "thm14", "--catalog", "borromean"])
        assert code == EXIT_OK
        assert "thm14 [borromean]: PASS" in text

    def test_thm15_trivial_two_component(self):
        code, text = run_cli(["verify", "thm15", "--catalog", "hopf+"])
        assert code == EXIT_OK
        assert "PASS" in text

    def test_lemmas(self):
        code, text = run_cli(["verify", "lemmas", "--m-max", "8"])
        assert code == EXIT_OK
        assert "lemma5.1(m=8): PASS" in text
        assert "partition-identity(m=8): PASS" in text

    def test_eight_component_chain(self):
        chain = "strands=8; " + " ".join(f"{i} {i}" for i in range(1, 8))
        for target in ("prop31", "thm13", "skeinF"):
            code, text = run_cli(["verify", target, "--braid", chain])
            assert code == EXIT_OK, target
            assert "FAIL" not in text

    def test_split_link_needs_no_subset_walk(self):
        # the 20-component unlink: F is zero by the split rule, so the check
        # fits a budget that a walk over its sublinks' values would exceed
        code, text = run_cli(["verify", "prop31", "--braid", "strands=20;", "--max-nodes", "1000"])
        assert code == EXIT_OK
        assert text == "prop31 [strands=20;]: PASS\n1/1 checks passed\n"

    def test_lemma_bounds(self, capsys):
        for target in ("lemmas", "all"):
            for flag in ("--m-max", "--n-max"):
                for value in ("1000", "0", "-4"):
                    code, text = run_cli(["verify", target, flag, value])
                    assert code == EXIT_INPUT and text == ""
                    err = capsys.readouterr().err
                    assert err.startswith(f"error: {flag} must be at") and err.count("\n") == 1, err
        code, _ = run_cli(["verify", "lemmas", "--m-max", "3", "--n-max", "20"])
        assert code == EXIT_OK
        code, text = run_cli(["verify", "lemmas", "--m-max", "1", "--n-max", "1"])
        assert code == EXIT_OK and text == "lemma5.3(m=1): PASS\n1/1 checks passed\n"

    def test_skip_lines_are_exact(self, tmp_path):
        small = ["--m-max", "2", "--n-max", "2"]
        code, text = run_cli(["verify", "all", "--catalog", "trefoil", *small])
        assert code == EXIT_OK
        assert [line for line in text.splitlines() if "SKIP" in line] == [
            "prop31 [trefoil]: SKIP (needs >= 2 components)",
            "thm13 [trefoil]: SKIP (needs >= 2 components)",
            "thm15 [trefoil]: SKIP (needs >= 2 components)",
            "skeinF [trefoil]: SKIP (no inter-component crossings)",
            "splitF [trefoil]: SKIP (needs >= 2 components)",
        ]
        path = tmp_path / "empty.json"
        path.write_text('{"components": [], "crossings": []}')
        code, text = run_cli(["verify", "all", "--file", str(path), *small, "--format", "json"])
        assert code == EXIT_OK
        assert json.loads(text)["skipped"] == [f"all [{path}]: SKIP (empty diagram)"]
        code, text = run_cli(["verify", "thm14", "--file", str(path)])
        assert code == EXIT_OK
        assert text == f"thm14 [{path}]: SKIP (empty diagram)\n0/0 checks passed\n"

    def test_lemma54_n1_is_excluded_by_default(self):
        code, text = run_cli(["verify", "lemmas", "--m-max", "4"])
        assert code == EXIT_OK
        assert "lemma5.4(n=1)" not in text

    def test_lemma54_n1_on_request(self):
        code, text = run_cli(
            ["verify", "lemmas", "--m-max", "4", "--include-lemma54-n1"]
        )
        assert code == EXIT_FAILED
        assert "lemma5.4(n=1): FAIL" in text

    def test_lemma_report_order(self):
        # each lemma from its least parameter, then the partition identity
        expected = (
            [f"lemma5.1(m={m})" for m in (2, 3, 4)]
            + [f"lemma5.2(m={m})" for m in (3, 4)]
            + [f"lemma5.3(m={m})" for m in (1, 2, 3, 4)]
            + [f"lemma5.4(n={n})" for n in (2, 3, 4)]
            + [f"partition-identity(m={m})" for m in (2, 3, 4)]
        )
        small = ["verify", "lemmas", "--m-max", "4", "--n-max", "4", "--format", "json"]
        with_n1 = list(expected)
        with_n1.insert(expected.index("lemma5.4(n=2)"), "lemma5.4(n=1)")
        for extra, ids in (([], expected), (["--include-lemma54-n1"], with_n1)):
            _, text = run_cli(small + extra)
            assert [r["identity"] for r in json.loads(text)["reports"]] == ids

    def test_stdin_braids(self, monkeypatch):
        braids = "strands=2; 1 1\nstrands=2; 1 1 1 1\n"
        code, text = run_cli(["verify", "prop31"], stdin_text=braids, monkeypatch=monkeypatch)
        assert code == EXIT_OK
        assert text.count("PASS") == 2

    def test_pipe_goes_on_past_a_link_over_the_budget(self, monkeypatch, capsys):
        # that link prints one error line and loses its report; the others
        # print what they print without it, and the run exits 2
        over = "strands=4; 1 -2 3 1 -2 3 1 -2 3 1 -2 3"
        links = ["strands=2; 1 1", over, "strands=2; 1 1 1 1"]
        argv = ["verify", "thm14", "--max-nodes", "200"]
        for fmt in ([], ["--format", "json"]):
            pipe = "".join(f"{link}\n" for link in links)
            code, text = run_cli(argv + fmt, stdin_text=pipe, monkeypatch=monkeypatch)
            assert code == EXIT_RESOURCE
            assert capsys.readouterr().err == f"error: node budget of 200 exceeded [{over}]\n"
            others = f"{links[0]}\n{links[2]}\n"
            other_code, other_text = run_cli(argv + fmt, stdin_text=others, monkeypatch=monkeypatch)
            assert other_code == EXIT_OK
            if fmt:  # "passed" is false: not every check ran
                assert json.loads(text) == dict(json.loads(other_text), passed=False)
            else:
                assert text == other_text
        # a resource limit outranks a failed check
        code, text = run_cli(
            ["verify", "all", "--braid", over, "--max-nodes", "200", "--m-max", "2",
             "--n-max", "2", "--include-lemma54-n1"]
        )
        assert code == EXIT_RESOURCE and "lemma5.4(n=1): FAIL" in text

    def test_stdin_skips_knots(self, monkeypatch):
        braids = "strands=2; 1 1 1\n"
        code, text = run_cli(["verify", "prop31"], stdin_text=braids, monkeypatch=monkeypatch)
        assert code == EXIT_OK
        assert "SKIP" in text

    def test_all_does_not_read_open_stdin(self, monkeypatch):
        # a non-TTY stdin that never closes must not block `verify all`
        class OpenPipe:
            def isatty(self):
                return False

            def read(self):
                raise AssertionError("verify all read stdin")

        monkeypatch.setattr("sys.stdin", OpenPipe())
        code, text = run_cli(["verify", "all", "--m-max", "2", "--n-max", "2"])
        assert code == EXIT_OK
        assert "thm14 [trefoil]: PASS" in text  # the catalog ran

    def test_all_on_one_link(self):
        code, text = run_cli(["verify", "all", "--catalog", "borromean", "--m-max", "4"])
        assert code == EXIT_OK
        for token in ("prop31", "thm13", "thm14", "thm15", "skeinF", "splitF"):
            assert f"{token} [borromean" in text

    def test_json_reports(self):
        code, text = run_cli(
            ["verify", "thm13", "--catalog", "borromean", "--format", "json"]
        )
        assert code == EXIT_OK
        obj = json.loads(text)
        assert obj["passed"] is True
        assert len(obj["reports"]) == 2  # g = 0 and g = 1
        for report in obj["reports"]:
            assert set(report) == {"identity", "pass", "lhs", "rhs", "residual", "context"}

    def test_node_budget_on_braids(self, capsys):
        # the Hecke engine counts its terms over all of one link's traces
        chain = "strands=6; 1 1 2 2 3 3 4 4 5 5"
        small = ["--m-max", "2", "--n-max", "2"]
        for target in ("skeinF", "all"):
            code, _ = run_cli(["verify", target, "--braid", chain, *small, "--max-nodes", "2"])
            assert code == EXIT_RESOURCE, target
            err = capsys.readouterr().err
            assert err.startswith("error: node budget of 2 exceeded")
            assert err.count("\n") == 1 and "Traceback" not in err

    def test_missing_link_flags(self, capsys):
        code, _ = run_cli(["verify", "thm14"])
        assert code == EXIT_INPUT
        capsys.readouterr()


class TestRandom:
    def test_deterministic(self):
        code1, text1 = run_cli(["random", "--strands", "3", "--length", "8", "--seed", "42"])
        code2, text2 = run_cli(["random", "--strands", "3", "--length", "8", "--seed", "42"])
        assert code1 == code2 == EXIT_OK
        assert text1 == text2

    def test_count(self):
        code, text = run_cli(
            ["random", "--strands", "4", "--length", "5", "--seed", "1", "--count", "7"]
        )
        assert code == EXIT_OK
        lines = text.strip().splitlines()
        assert len(lines) == 7
        assert all(line.startswith("strands=4;") for line in lines)

    def test_readme_pipe_prints_these_words_and_reports(self, monkeypatch):
        # the words of the README's `random | verify prop31` pipe, and the
        # lines verify prints for them: two links and two knots
        words = (
            "strands=3; 2 -1 -1 1 -2 2\n"
            "strands=3; 1 1 -2 2 -2 -2\n"
            "strands=3; -1 -1 -2 1 1 -2\n"
            "strands=3; -1 -2 -2 1 1 2\n"
        )
        argv = ["random", "--strands", "3", "--length", "6", "--seed", "7", "--count", "4"]
        assert run_cli(argv) == (EXIT_OK, words)
        code, text = run_cli(["verify", "prop31"], stdin_text=words, monkeypatch=monkeypatch)
        assert code == EXIT_OK
        assert text == (
            "prop31 [strands=3; 1 1 -2 2 -2 -2]: PASS\n"
            "prop31 [strands=3; -1 -1 -2 1 1 -2]: PASS\n"
            "prop31 [strands=3; 2 -1 -1 1 -2 2]: SKIP (needs >= 2 components)\n"
            "prop31 [strands=3; -1 -2 -2 1 1 2]: SKIP (needs >= 2 components)\n"
            "2/2 checks passed\n"
        )

    def test_invalid_strands(self, capsys):
        code, _ = run_cli(["random", "--strands", "1"])
        assert code == EXIT_INPUT
        capsys.readouterr()

    def test_length_and_strands_past_their_caps(self, capsys):
        # refused before any letter is drawn: one past each cap
        for flag, cap in (("--length", cli.RANDOM_LENGTH_LIMIT), ("--strands", MAX_STRANDS)):
            code, text = run_cli(["random", flag, str(cap + 1)])
            err = capsys.readouterr().err
            assert code == EXIT_INPUT and text == ""
            assert err == f"error: {flag} must be at most {cap}, got {cap + 1}\n"

    def test_words_at_the_strand_cap_read_back(self):
        code, text = run_cli(["random", "--strands", str(MAX_STRANDS), "--length", "3"])
        assert code == EXIT_OK
        assert parse_braid(text).as_text() == text.strip()


# argvs of every kind that `main` dispatches: each subcommand, help before
# and after the command, none, an unknown command, leftover arguments, a bad
# verify target, a node budget below one and a non-integer count
DISPATCH_ARGVS = [
    ["homfly", "--catalog", "hopf+"],
    ["homfly", "--braid", "strands=2; 1 1 1", "--format", "json"],
    ["homfly", "--braid=strands=2; 1 1", "--max-nodes=100"],
    ["homfly", "--form", "json", "--catalog", "trefoil"],
    ["verify", "prop31", "--braid", "strands=3; 1 1 2 2"],
    ["verify", "lemmas", "--m-max", "3", "--n-max", "3", "--format", "json"],
    ["random", "--strands", "4", "--length", "5", "--count", "2", "--seed", "9"],
    ["catalog"],
    ["catalog", "--format", "json"],
    ["-h"],
    ["--help"],
    ["-h", "homfly"],
    ["homfly", "-h"],
    ["verify", "prop31", "--help"],
    ["random", "-h"],
    ["catalog", "-h"],
    [],
    ["bogus"],
    ["bogus", "--catalog", "hopf+"],
    ["--", "homfly", "--catalog", "hopf+"],
    ["homfly", "--", "--catalog"],
    ["homfly", "--catalog", "unknot", "extra"],
    ["catalog", "extra", "more"],
    ["random", "--seed", "1", "2"],
    ["verify", "prop31", "--braid", "strands=3; 1 1 2 2", "x", "--y"],
    ["verify", "nope", "--catalog", "hopf+"],
    ["homfly", "--catalog", "hopf+", "--max-nodes", "0"],
    ["homfly", "--catalog", "hopf+", "--max-nodes", "x"],
    ["random", "--count", "1.5"],
]


class TestDispatch:
    """`main` parses with the subcommand's own parser; it must answer as
    parsing every argv through the top-level parser of `build_parser` does."""

    @staticmethod
    def _answer(argv, capsys) -> tuple:
        try:
            code, text = run_cli(argv)
        except SystemExit as exc:  # --help
            code, text = f"exit {exc.code}", ""
        captured = capsys.readouterr()
        return code, text + captured.out, captured.err

    @pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=" ".join)
    def test_same_answer_as_the_top_level_parser(self, argv, capsys, monkeypatch):
        answer = self._answer(argv, capsys)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_parse_args", lambda args: cli.build_parser().parse_args(args))
            assert self._answer(argv, capsys) == answer

    @pytest.mark.parametrize("argv", DISPATCH_ARGVS[:9], ids=" ".join)
    def test_same_namespace_as_the_top_level_parser(self, argv):
        assert cli._parse_args(argv) == cli.build_parser().parse_args(argv)

    def test_leftovers_are_refused_by_the_top_level_parser(self, capsys):
        assert run_cli(["homfly", "--catalog", "unknot", "extra"])[0] == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == "error: unrecognized arguments: extra (see 'homflypt --help')\n"


class TestCatalog:
    def test_listing(self):
        code, text = run_cli(["catalog"])
        assert code == EXIT_OK
        assert "hopf+ L=2 w=2 lk=1" in text
        assert "borromean L=3 w=0 lk=0" in text
        assert "unknot L=1 w=0 lk=0" in text

    def test_json(self):
        code, text = run_cli(["catalog", "--format", "json"])
        assert code == EXIT_OK
        obj = json.loads(text)
        names = [row["name"] for row in obj["links"]]
        assert "trefoil-hopf+" in names


class TestJsonText:
    def test_matches_json_dumps_on_seeded_values(self):
        # the CLI's own payloads are checked in every test by a conftest
        # fixture; these are the other values its writer must handle
        rng = SplitMix64(2718)
        alphabet = ["a", "Z", " ", '"', "\\", "/", "\n", "\t", "\x01", "\x7f"]
        alphabet += ["é", "€", "\U0001f600"]

        def text():
            return "".join(alphabet[rng.below(len(alphabet))] for _ in range(rng.below(6)))

        def scalar():
            kind = rng.below(7)
            if kind == 0:
                return rng.below(2**70) - 2**69
            if kind == 1:
                return rng.below(21) - 10
            if kind == 2:
                return text()
            return (True, False, None, 0.5)[kind - 3]

        def value(depth):
            kind = rng.below(4) if depth < 4 else 0
            size = rng.below(4)
            if kind == 1:
                return {text(): value(depth + 1) for _ in range(size)}
            if kind == 2:
                return tuple(value(depth + 1) for _ in range(size))
            if kind == 3:
                return [value(depth + 1) for _ in range(size)]
            return scalar()

        values = [value(0) for _ in range(300)]
        values += [{}, [], (), "", 0, -1, 10**40, -(10**40), True, False, None, {"": [{}]}]
        for v in values:
            assert cli.json_text(v) == json.dumps(v, sort_keys=True, indent=2), v
