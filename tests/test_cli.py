"""CLI behavior: subcommands, formats, exit codes, and stdin piping."""

import io
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from homflypt import BivarLaurent, T, Z, close_braid, parse_braid
from homflypt import catalog as cat
from homflypt.links import MAX_STRANDS
from homflypt import cli
from homflypt.cli import EXIT_FAILED, EXIT_INPUT, EXIT_OK, EXIT_RESOURCE, main
from homflypt.skein import coeff_table

from conftest import seeded_closures, table_layout


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
            for argv, stdin, line in (
                (["homfly", "--braid", braid], None, ""),
                (["verify", "prop31", "--braid", braid], None, ""),
                (["verify", "prop31"], braid + "\n", "line 1: "),
            ):
                code, text = run_cli(argv, stdin_text=stdin, monkeypatch=monkeypatch)
                assert code == EXIT_INPUT and text == "", argv
                assert capsys.readouterr().err == (
                    f"error: {line}strand count must be at most 100000 (at offset 8)\n"
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

    def test_no_link_is_bad_input(self, tmp_path, capsys):
        # no link flag, or a file holding the empty diagram
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"components": [], "crossings": []}))
        for argv, message in (
            (["homfly"], "give one of --catalog, --braid, --file"),
            (["homfly", "--file", str(path)], "the empty diagram has no coefficient table"),
        ):
            assert run_cli(argv) == (EXIT_INPUT, "")
            assert capsys.readouterr().err == f"error: {message}\n"

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

    def test_file_that_is_not_utf8_is_bad_input(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b"\xff{}")
        code, text = run_cli(["homfly", "--file", str(path)])
        assert (code, text) == (EXIT_INPUT, "")
        assert capsys.readouterr().err == (
            f"error: {path}: not UTF-8 text ('utf-8' codec can't decode byte 0xff"
            " in position 0: invalid start byte)\n"
        )

    def test_json_nested_too_deeply_is_bad_input(self, tmp_path, capsys):
        # the schema nests four deep; json.loads raises RecursionError long
        # before 200,000, which is the document's fault, not a resource limit
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        for command in ("homfly", "verify thm14"):
            code, text = run_cli([*command.split(), "--file", str(path)])
            assert (code, text) == (EXIT_INPUT, ""), command
            assert capsys.readouterr().err == f"error: {path}: invalid JSON (nested too deeply)\n"

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no limit on int digits"
    )
    def test_int_past_the_digit_limit_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        path.write_text('{"components": [], "crossings": [{"id": %s}]}' % digits)
        code, text = run_cli(["homfly", "--file", str(path)])
        assert (code, text) == (EXIT_INPUT, "")
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: invalid JSON (Exceeds the limit") and err.count("\n") == 1

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


def table_json(link, label: str) -> str:
    """What ``homfly --format json`` must print for `link`: the oracle
    layout of a fresh engine's table, dumped by `json.dumps`."""
    return json.dumps(table_layout(coeff_table(link), label), sort_keys=True, indent=2) + "\n"


class TestHomflyJson:
    """`CoeffTable.to_json_text` against `json.dumps` of the layout that
    conftest reads off the table's public values, byte for byte."""

    def test_catalog_by_name_and_by_file(self, tmp_path):
        for name in cat.names():
            code, text = run_cli(["homfly", "--catalog", name, "--format", "json"])
            assert code == EXIT_OK and text == table_json(cat.get(name).word(), name), name
            diagram = cat.diagram(name)
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(diagram.to_json_dict()))
            code, text = run_cli(["homfly", "--file", str(path), "--format", "json"])
            assert code == EXIT_OK and text == table_json(diagram, str(path)), name

    def test_seeded_closures(self):
        for word, _ in seeded_closures(31, 300, strands=(2, 3, 4, 5)):
            label = word.as_text()
            code, text = run_cli(["homfly", "--braid", label, "--format", "json"])
            assert code == EXIT_OK and text == table_json(word, label), label

    def test_genus_keys_sort_as_strings(self):
        # T(2,25) has z-levels up to z^24, so json.dumps puts "10" before "2"
        label = "strands=2;" + " 1" * 25
        code, text = run_cli(["homfly", "--braid", label, "--format", "json"])
        assert code == EXIT_OK and text == table_json(parse_braid(label), label)
        keys = sorted(str(g) for g in range(13))
        assert keys[:4] == ["0", "1", "10", "11"]
        obj = json.loads(text)
        assert list(obj["h"]) == list(obj["p"]) == keys

    @pytest.mark.parametrize("strands", [1, 5])
    def test_unlinks(self, strands):
        label = f"strands={strands};"
        code, text = run_cli(["homfly", "--braid", label, "--format", "json"])
        assert code == EXIT_OK and text == table_json(parse_braid(label), label)
        # P = z**(1-L) * (t - t**-1)**(L-1) at writhe 0
        assert min(ez for ez, _, _, _ in json.loads(text)["homfly"]) == 1 - strands

    def test_labels_are_escaped_as_json_dumps_escapes_them(self, tmp_path):
        table = coeff_table(parse_braid("strands=3; 1 -2 1 -2"))
        labels = ["", '"', "\\", '\\"', "a\nb\tc\r", "\x00\x01\x1f\x7f", "é€\U0001f600"]
        labels += ["\u2028\u2029", "\udc80", "</script>"]
        for label in labels:
            assert table.to_json_text(label) == json.dumps(
                table_layout(table, label), sort_keys=True, indent=2
            ), label
        path = tmp_path / 'quote" back\\slash é€.json'
        diagram = cat.diagram("borromean")
        path.write_text(json.dumps(diagram.to_json_dict()))
        code, text = run_cli(["homfly", "--file", str(path), "--format", "json"])
        assert code == EXIT_OK and text == table_json(diagram, str(path))
        assert text.isascii()

    @settings(max_examples=200, deadline=None)
    @given(label=st.text())
    def test_any_label(self, label):
        table = coeff_table(parse_braid("strands=2; 1 1"))
        assert table.to_json_text(label) == json.dumps(
            table_layout(table, label), sort_keys=True, indent=2
        )


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

    def test_closed_stdout_prints_no_traceback(self):
        # with file descriptor 1 closed, sys.stdout is None: the run exits 1
        # before the command, as it does when the reader closes the pipe
        proc = python(
            ["-m", "homflypt", "homfly", "--braid", "strands=2; 1 1"],
            stderr=subprocess.PIPE,
            preexec_fn=lambda: os.close(1),
        )
        err = proc.communicate(timeout=60)[1]
        assert proc.returncode == EXIT_INPUT
        assert err == b""

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

    @pytest.mark.parametrize("flags", [
        ["--braid", "garbage", "--max-nodes", "0"],
        ["--catalog", "hopf+"],
        ["--file", "missing.json"],
        ["--max-nodes", "100"],
    ])
    def test_lemmas_refuse_link_flags_and_a_budget(self, flags, monkeypatch, capsys):
        # the lemmas read no link and spend no nodes: a link flag or a
        # budget is refused, not ignored, and no piped link is read
        class Unread:
            def isatty(self):
                return False

            def read(self):
                raise AssertionError("verify lemmas read stdin")

        monkeypatch.setattr("sys.stdin", Unread())
        code, text = run_cli(["verify", "lemmas", *flags, "--m-max", "2", "--n-max", "2"])
        assert (code, text) == (EXIT_INPUT, "")
        assert capsys.readouterr().err == (
            "error: verify lemmas takes no --catalog, --braid, --file or --max-nodes\n"
        )

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

    def test_a_bad_stdin_line_is_named(self, monkeypatch, capsys):
        # lines count from 1, blank ones included, and only a newline ends
        # one (a form feed or a line separator is whitespace within a line);
        # nothing is reported
        message = "expected a signed integer, got 'x' (at offset 15)"
        for pipe, number in (
            ("strands=2; 1 1\nstrands=3; 1 2 x\n", 2),
            ("\nstrands=2; 1 1\n  \nstrands=3; 1 2 x\nstrands=2; 1\n", 4),
            ("strands=2; 1\x0c1\u20281\nstrands=3; 1 2 x\n", 2),
        ):
            code, text = run_cli(["verify", "thm14"], stdin_text=pipe, monkeypatch=monkeypatch)
            assert (code, text) == (EXIT_INPUT, "")
            assert capsys.readouterr().err == f"error: line {number}: {message}\n"
        # a --braid value is not a line
        code, _ = run_cli(["verify", "thm14", "--braid", "strands=3; 1 2 x"])
        assert code == EXIT_INPUT and capsys.readouterr().err == f"error: {message}\n"

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

    def test_closed_stdin_reads_as_empty(self, monkeypatch, capsys):
        # with file descriptor 0 closed, sys.stdin is None
        monkeypatch.setattr(sys, "stdin", None)
        code, text = run_cli(["verify", "thm14"])
        assert (code, text) == (EXIT_INPUT, "")
        assert capsys.readouterr().err == (
            "error: give one of --catalog, --braid, --file, or pipe braid lines on stdin\n"
        )

    @pytest.mark.parametrize("argv", [
        ["homfly"],
        ["verify", "thm14"],
        ["verify", "all"],
    ])
    @pytest.mark.parametrize("flag, message", [
        ("--braid", "error: expected a 'strands=N;' header (at offset 0)\n"),
        ("--catalog", "error: unknown catalog link ''; known: "),
        ("--file", "error: cannot read : "),
    ])
    def test_an_empty_flag_value_is_given(self, argv, flag, message, monkeypatch, capsys):
        # an empty value is read as the flag's input and refused in the
        # words of the braid parser, the catalog or the file loader: it
        # neither reads the link piped on stdin nor runs the catalog
        code, text = run_cli([*argv, flag, ""], "strands=2; 1 1\n", monkeypatch)
        assert (code, text) == (EXIT_INPUT, "")
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1, err

    def test_an_empty_flag_value_counts_as_a_link_flag(self, capsys):
        code, _ = run_cli(["homfly", "--catalog", "unknot", "--braid", ""])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == "error: give exactly one of --catalog, --braid, --file\n"

    def test_the_budget_stops_the_setup_on_wide_inputs(self, tmp_path, capsys):
        # splitF charges each of the 8000 components it splits off, and
        # skeinF lists the 8000 inter-component crossings of T(2,8000) in
        # one pass, so both stop at a budget of 10 at once; splitting every
        # component uncharged, or testing each crossing by a scan of the
        # diagram, takes 6-9 s on 2 vCPUs
        torus = tmp_path / "t2_8000.json"
        diagram = close_braid(parse_braid("strands=2;" + " 1" * 8000))
        torus.write_text(json.dumps(diagram.to_json_dict()))
        for argv in (["splitF", "--braid", "strands=8000;"], ["skeinF", "--file", str(torus)]):
            start = time.perf_counter()
            code, _ = run_cli(["verify", *argv, "--max-nodes", "10"])
            seconds = time.perf_counter() - start
            assert code == EXIT_RESOURCE, argv
            assert capsys.readouterr().err == f"error: node budget of 10 exceeded [{argv[2]}]\n"
            assert seconds < 1, (argv, seconds)


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
