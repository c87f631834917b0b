import argparse
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from hrcolor.checker import check_highly
from hrcolor.cli import EXIT_PASS, EXIT_USAGE, build_parser, main
from hrcolor.codec import decode_instance, encode_instance
from hrcolor.constructions import c7_pair, c8c8p5


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def two_k2_edges(tmp_path):
    p = tmp_path / "2k2.edges"
    p.write_text("4 2\n0 1\n2 3\n", encoding="utf-8")
    return str(p)


@pytest.fixture
def k3_edges(tmp_path):
    p = tmp_path / "k3.edges"
    p.write_text("3 3\n0 1\n1 2\n2 0\n", encoding="utf-8")
    return str(p)


@pytest.fixture
def k2_instance(tmp_path):
    doc = (
        '{"name": "k2-two-colors", "n": 2, "edges": [[0, 1]], "k": 2, '
        '"attackers": 1, "colors": [[1], [2]]}'
    )
    p = tmp_path / "k2.json"
    p.write_text(doc, encoding="utf-8")
    return str(p)


class TestConstruct:
    def test_paper_14(self, capsys):
        rc, out, _ = run(capsys, "construct", "--family", "paper-14")
        assert rc == 0
        inst = decode_instance(out)
        assert inst.graph.n == 14 and inst.coloring.palette_size == 7

    def test_clique_partition_4(self, capsys):
        rc, out, _ = run(capsys, "construct", "--family", "clique-partition:4")
        assert rc == 0
        inst = decode_instance(out)
        assert inst.graph.n == 25 and inst.coloring.palette_size == 5

    def test_clique_partition_over_the_vertex_limit(self, capsys):
        # (64+1)^2 = 4225 vertices is more than `check` would read back
        rc, out, err = run(capsys, "construct", "--family", "clique-partition:64")
        assert rc == 2 and out == ""
        assert "4225 vertices" in err

    def test_unknown_family(self, capsys):
        rc, _, err = run(capsys, "construct", "--family", "paper-9")
        assert rc == 2
        assert "clique-partition:<a>" in err and "paper-14" in err


class TestCheck:
    def test_instance_pass(self, capsys, tmp_path):
        p = tmp_path / "p21.json"
        p.write_text(encode_instance(c8c8p5()), encoding="utf-8")
        rc, out, _ = run(capsys, "check", "--instance", str(p), "-a", "4", "--threads", "1")
        assert rc == 0
        assert "highly resistant: yes" in out

    def test_instance_fail_with_witness(self, capsys, k2_instance):
        rc, out, _ = run(capsys, "check", "--instance", k2_instance, "-a", "1")
        assert rc == 1
        assert "resistance: FAILS" in out and "{0}" in out

    def test_attack_size_from_instance(self, capsys, k2_instance):
        rc, out, _ = run(capsys, "check", "--instance", k2_instance)
        assert rc == 1

    def test_invalid_attack_size(self, capsys, two_k2_edges, tmp_path):
        coloring = tmp_path / "c.json"
        coloring.write_text('{"k": 2, "colors": [[1], [2], [1], [2]]}', encoding="utf-8")
        rc, _, err = run(
            capsys, "check", "--graph", two_k2_edges, "--coloring", str(coloring), "-a", "0"
        )
        assert rc == 2 and "error" in err

    def test_graph_plus_coloring(self, capsys, two_k2_edges, tmp_path):
        coloring = tmp_path / "c.json"
        coloring.write_text('{"k": 2, "colors": [[1], [2], [1], [2]]}', encoding="utf-8")
        rc, out, _ = run(
            capsys, "check", "--graph", two_k2_edges, "--coloring", str(coloring), "-a", "1"
        )
        assert rc == 0

    def test_json_format_agrees_with_human(self, capsys, k2_instance):
        rc_h, out_h, _ = run(capsys, "check", "--instance", k2_instance, "--format", "human")
        rc_j, out_j, _ = run(capsys, "check", "--instance", k2_instance, "--format", "json")
        assert rc_h == rc_j == 1
        obj = json.loads(out_j)
        assert obj["highly_resistant"] is False
        assert obj["resistance_witness"] == [0]
        assert ("highly resistant: no" in out_h)

    def test_sample_mode_deterministic(self, capsys, k2_instance):
        rc1, out1, _ = run(
            capsys, "check", "--instance", k2_instance, "--sample", "10",
            "--seed", "0", "--threads", "1",
        )
        rc2, out2, _ = run(
            capsys, "check", "--instance", k2_instance, "--sample", "10",
            "--seed", "0", "--threads", "1",
        )
        assert rc1 == rc2 == 1
        assert out1 == out2
        assert "resistance failures: 10" in out1

    def test_sampling_default_does_not_depend_on_the_host(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setenv("HRCOLOR_THREADS", "3")
        p = tmp_path / "p14.json"
        p.write_text(encode_instance(c7_pair()), encoding="utf-8")
        argv = [
            "check", "--instance", str(p), "-a", "4",
            "--sample", "200", "--seed", "1", "--format", "json",
        ]
        default = run(capsys, *argv)
        assert default == run(capsys, *argv, "--threads", "1")
        assert json.loads(default[1])["workers"] == 1

    def test_threads_must_be_positive_on_every_subcommand(self, capsys, k2_instance):
        for argv in (
            ["check", "--instance", k2_instance],
            ["construct", "--family", "paper-14"],
            ["table", "--max-a", "1"],
        ):
            for bad in ("0", "-1", "x"):
                rc, out, err = run(capsys, *argv, "--threads", bad)
                assert rc == 2 and out == ""
                assert "--threads" in err

    def test_missing_file(self, capsys):
        rc, _, err = run(capsys, "check", "--instance", "/nonexistent.json", "-a", "1")
        assert rc == 2

    def test_missing_inputs_are_usage_errors(self, capsys, two_k2_edges, tmp_path):
        coloring = tmp_path / "c.json"
        coloring.write_text('{"k": 2, "colors": [[1], [2], [1], [2]]}', encoding="utf-8")
        for argv in (
            ["check"],
            ["check", "--graph", two_k2_edges, "-a", "1"],
            ["check", "--coloring", str(coloring), "-a", "1"],
        ):
            rc, out, err = run(capsys, *argv)
            assert (rc, out) == (2, "")
            assert err == "error: check needs --instance, or --graph with --coloring\n"

    @pytest.mark.parametrize("extra", [["--graph"], ["--coloring"], ["--graph", "--coloring"]])
    def test_instance_with_graph_or_coloring_is_a_usage_error(
        self, capsys, k2_instance, two_k2_edges, extra
    ):
        paths = {"--graph": two_k2_edges, "--coloring": k2_instance}
        argv = [arg for flag in extra for arg in (flag, paths[flag])]
        rc, out, err = run(capsys, "check", "--instance", k2_instance, *argv)
        assert (rc, out) == (2, "")
        assert err == "error: --instance cannot be combined with --graph or --coloring\n"

    def test_seed_without_sample_is_a_usage_error(self, capsys, k2_instance):
        # an exhaustive check draws nothing, so a seed would be ignored
        rc, out, err = run(capsys, "check", "--instance", k2_instance, "--seed", "3")
        assert (rc, out) == (2, "")
        assert err == "error: --seed needs --sample\n"

    def test_sample_without_seed_draws_from_seed_zero(self, capsys, k2_instance):
        argv = ["check", "--instance", k2_instance, "--sample", "10", "--format", "json"]
        default = run(capsys, *argv)
        assert default == run(capsys, *argv, "--seed", "0")
        assert json.loads(default[1])["seed"] == 0


class TestSearch:
    def test_triangle_unsat(self, capsys, k3_edges):
        rc, out, _ = run(capsys, "search", "--graph", k3_edges, "-a", "1", "-k", "2")
        assert rc == 1
        assert "unsat" in out

    def test_two_k2_sat_witness_checks_out(self, capsys, two_k2_edges, tmp_path):
        rc, out, _ = run(capsys, "search", "--graph", two_k2_edges, "-a", "1", "-k", "2")
        assert rc == 0
        doc_start = out.index("#")
        witness = decode_instance(out[doc_start:])
        p = tmp_path / "witness.json"
        p.write_text(out[doc_start:], encoding="utf-8")
        rc2, out2, _ = run(capsys, "check", "--instance", str(p))
        assert rc2 == 0

    def test_json_witness_is_a_decodable_document(self, capsys, two_k2_edges):
        rc, out, _ = run(
            capsys, "search", "--graph", two_k2_edges, "-a", "1", "-k", "2",
            "--format", "json",
        )
        assert rc == 0
        obj = json.loads(out)
        assert obj["outcome"] == "sat"
        witness = decode_instance(json.dumps(obj["witness"]))
        assert check_highly(witness.graph, witness.coloring, 1).highly_resistant

    def test_palette_deeper_than_the_recursion_limit(self, capsys, two_k2_edges):
        rc, out, err = run(capsys, "search", "--graph", two_k2_edges, "-a", "1",
                           "-k", "3000", "--format", "json")
        assert rc == 0 and err == ""
        report = json.loads(out)
        assert report["outcome"] == "sat" and report["nodes_expanded"] == 3009

    def test_zero_budget_unknown(self, capsys, two_k2_edges):
        rc, out, _ = run(
            capsys, "search", "--graph", two_k2_edges, "-a", "1", "-k", "2", "--budget", "0"
        )
        assert rc == 3

    def test_min_colors(self, capsys, two_k2_edges):
        rc, out, _ = run(
            capsys, "search", "--graph", two_k2_edges, "-a", "1", "--min-colors", "--kmax", "3"
        )
        assert rc == 0
        assert "minimum colors: 2" in out

    def test_nonexistence_all_unsat(self, capsys):
        rc, out, _ = run(capsys, "search", "--nonexistence", "-n", "3", "-a", "1", "--kmax", "4")
        assert rc == 1
        assert "all-unsat" in out

    def test_nonexistence_found(self, capsys):
        rc, out, _ = run(capsys, "search", "--nonexistence", "-n", "4", "-a", "1", "--kmax", "2")
        assert rc == 0
        doc_start = out.index("#")
        witness = decode_instance(out[doc_start:])
        assert check_highly(witness.graph, witness.coloring, 1).highly_resistant

    def test_nonexistence_every_palette(self, capsys):
        rc, out, _ = run(capsys, "search", "--nonexistence", "-n", "3", "-a", "1",
                         "--kmax", "4", "--format", "json")
        assert rc == 1
        obj = json.loads(out)
        assert list(obj)[-1] == "every_palette" and obj["every_palette"] is True
        rc, out, _ = run(capsys, "search", "--nonexistence", "-n", "3", "-a", "1", "--kmax", "4")
        assert "every palette: yes" in out
        rc, out, _ = run(capsys, "search", "--nonexistence", "-n", "4", "-a", "1", "--kmax", "2")
        assert rc == 0 and "every palette: no" in out

    def test_min_colors_without_a_palette_to_decide(self, capsys, two_k2_edges):
        rc, out, err = run(capsys, "search", "--graph", two_k2_edges, "-a", "1",
                           "--min-colors", "--kmax", "1")
        assert rc == 2
        assert out == "" and err == "error: k_max must be at least a + 1\n"

    def test_palette_over_the_codec_limit_is_a_usage_error(self, capsys, two_k2_edges):
        cases = [
            (["--graph", two_k2_edges, "-k", "4097"],
             "palette size must be at most 4096, got 4097"),
            (["--graph", two_k2_edges, "--min-colors", "--kmax", "4097"],
             "k_max must be at most 4096, got 4097"),
            (["--nonexistence", "-n", "3", "--kmax", "4097"],
             "k_max must be at most 4096, got 4097"),
        ]
        for argv, message in cases:
            rc, out, err = run(capsys, "search", "-a", "1", *argv)
            assert (rc, out, err) == (2, "", f"error: {message}\n"), argv
        rc, _, _ = run(capsys, "search", "--graph", two_k2_edges, "-a", "1",
                       "-k", "4096", "--budget", "10")
        assert rc == 3

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_nonexistence_bad_vertex_count_names_n(self, capsys, n):
        rc, out, err = run(capsys, "search", "--nonexistence", "-n", n, "-a", "1", "--kmax", "2")
        assert rc == 2
        assert out == "" and err == f"error: vertex count n must be at least 1, got {n}\n"

    def test_nonexistence_negative_budget_is_a_usage_error(self, capsys):
        # every graph on 3 vertices is blocked at a = 1, so decide never runs
        rc, out, err = run(
            capsys, "search", "--nonexistence", "-n", "3", "-a", "1", "--kmax", "2",
            "--budget", "-5",
        )
        assert rc == 2
        assert out == "" and err == "error: budget must be non-negative\n"

    @pytest.mark.parametrize(
        "extra",
        [["--graph", "/nonexistent"], ["-k", "5"], ["--min-colors"],
         ["--graph", "/nonexistent", "-k", "5", "--min-colors"]],
    )
    def test_nonexistence_with_another_mode_is_a_usage_error(self, capsys, extra):
        rc, out, err = run(capsys, "search", "--nonexistence", "-n", "3", "-a", "1",
                           "--kmax", "2", *extra)
        assert (rc, out) == (2, "")
        assert err == "error: --nonexistence cannot be combined with --graph, -k or --min-colors\n"

    def test_min_colors_with_a_palette_to_decide_is_a_usage_error(self, capsys, two_k2_edges):
        rc, out, err = run(capsys, "search", "--graph", two_k2_edges, "-a", "1",
                           "--min-colors", "--kmax", "3", "-k", "2")
        assert (rc, out) == (2, "")
        assert err == "error: --min-colors cannot be combined with -k\n"

    @pytest.mark.parametrize(
        "extra", [["-n", "4"], ["--kmax", "3"], ["-n", "4", "--kmax", "3"]]
    )
    def test_palette_to_decide_with_a_sweep_or_scan_bound_is_a_usage_error(
        self, capsys, two_k2_edges, extra
    ):
        rc, out, err = run(capsys, "search", "--graph", two_k2_edges, "-a", "1",
                           "-k", "2", *extra)
        assert (rc, out) == (2, "")
        assert err == "error: -k cannot be combined with -n or --kmax\n"

    def test_min_colors_with_a_vertex_count_is_a_usage_error(self, capsys, two_k2_edges):
        rc, out, err = run(capsys, "search", "--graph", two_k2_edges, "-a", "1",
                           "--min-colors", "--kmax", "3", "-n", "4")
        assert (rc, out) == (2, "")
        assert err == "error: --min-colors cannot be combined with -n\n"

    def test_usage_errors(self, capsys, two_k2_edges):
        rc, _, _ = run(capsys, "search", "--graph", two_k2_edges, "-a", "1")
        assert rc == 2
        rc, _, _ = run(capsys, "search", "-a", "1", "-k", "2")
        assert rc == 2


class TestVerifyLemma:
    def test_fixed_cycle_suite(self, capsys):
        rc, out, _ = run(
            capsys, "verify-lemma", "--lemma", "5", "--trials", "300", "--seed", "0"
        )
        assert rc == 0
        assert "violations=0" in out

    @pytest.mark.parametrize("lemma_id", [4, 7, 9, 10, 11, 12])
    def test_every_suite_id_runs(self, capsys, lemma_id):
        rc, out, _ = run(
            capsys, "verify-lemma", "--lemma", str(lemma_id), "--trials", "50",
            "--seed", "7",
        )
        assert rc == 0
        assert "violations=0" in out

    def test_unknown_lemma(self, capsys):
        rc, _, err = run(capsys, "verify-lemma", "--lemma", "6")
        assert rc == 2
        assert "valid ids" in err

    def test_json_format(self, capsys):
        rc, out, _ = run(
            capsys, "verify-lemma", "--lemma", "9", "--trials", "100",
            "--seed", "0", "--format", "json",
        )
        assert rc == 0
        obj = json.loads(out)
        assert obj["violations"] == 0 and obj["trials"] == 100


class TestTable:
    def test_full_table(self, capsys):
        rc, out, _ = run(capsys, "table", "--max-a", "4", "--threads", "2")
        assert rc == 0
        assert "n=21" in out and "10" in out
        assert "construction + paper-citation [paper-21]" in out
        assert "n>=16" in out
        assert "paper-citation" in out

    def test_max_a_one_mentions_search_certification(self, capsys):
        rc, out, _ = run(capsys, "table", "--max-a", "1")
        assert rc == 0
        assert "exhaustive-search + paper-citation" in out

    def test_json(self, capsys):
        rc, out, _ = run(capsys, "table", "--max-a", "3", "--format", "json")
        assert rc == 0
        obj = json.loads(out)
        rows = obj["rows"]
        assert {"attackers": 3, "n_lo": 14, "n_hi": 15, "value": 7, "infinite": False,
                "proven_by": ["construction", "paper-citation"], "instance": "paper-14",
                "note": ""} in rows

    def test_bad_max_a(self, capsys):
        rc, _, _ = run(capsys, "table", "--max-a", "5")
        assert rc == 2


class TestExitCodeContract:
    def test_usage_error_from_argparse(self, capsys):
        assert run(capsys, "check", "--no-such-flag")[0] == 2
        assert run(capsys, "nonsense")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_repeated_calls_write_to_the_streams_of_each_call(self, capsys, k2_instance):
        check = ["check", "--instance", k2_instance, "--format", "json", "--threads", "1"]
        for _ in range(2):
            for argv, code in ((["check", "--no-such-flag"], 2), (["--help"], 0), (check, 1)):
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    assert main(argv) == code
                if code == 2:
                    assert out.getvalue() == ""
                    assert "unrecognized arguments: --no-such-flag" in err.getvalue()
                elif code == 0:
                    assert out.getvalue().startswith("usage: hrcolor")
                    assert err.getvalue() == ""
                else:
                    assert json.loads(out.getvalue())["resistance_witness"] == [0]
                    assert err.getvalue() == ""
        assert capsys.readouterr() == ("", "")


def _argvs(k2_instance, k3_edges):
    """One valid run of each command, then help, usage errors and leftovers."""
    return [
        ["check", "--instance", k2_instance, "--format", "json"],
        ["construct", "--family", "paper-14"],
        ["search", "--graph", k3_edges, "-a", "1", "-k", "2"],
        ["verify-lemma", "--lemma", "5", "--trials", "20"],
        ["table", "--max-a", "1"],
        [],
        ["--help"],
        ["check", "--help"],
        ["search", "-h"],
        ["nonsense"],
        ["check", "--no-such-flag"],
        ["check", "--instance", k2_instance, "--", "x"],
        ["search", "-a", "x"],
        ["check", "--format", "xml"],
        ["check", "--threads", "0"],
        ["check", "--inst", k2_instance],
        ["--format", "json", "check"],
        ["verify-lemma", "--lemma", "5", "--trials", "20", "extra"],
    ]


def _full_parse_main(argv):
    """`main` as it ran before: the full parser over every word, then the
    same dispatch. Returns the exit code and the parsed namespace."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return (EXIT_PASS if exc.code in (0, None) else EXIT_USAGE), None
    try:
        return args.func(args), args
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE, args


class TestOneParse:
    @pytest.fixture
    def parses(self, monkeypatch):
        """(prog, namespace) of every parse that returns, in return order."""
        returned = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def spy(self, *a, **kw):
            result = parse_known_args(self, *a, **kw)
            returned.append((self.prog, result[0]))
            return result

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
        return returned

    def test_main_matches_a_full_parse(self, capsys, parses, k2_instance, k3_edges):
        for argv in _argvs(k2_instance, k3_edges):
            parses.clear()
            got = run(capsys, *argv)
            # the namespace `main` dispatches on is the last one returned
            ns = parses[-1][1] if parses else None
            code, want_ns = _full_parse_main(argv)
            assert got == (code, *capsys.readouterr()), argv
            if want_ns is not None:
                assert {k: v for k, v in vars(ns).items() if k != "command"} == {
                    k: v for k, v in vars(want_ns).items() if k != "command"
                }, argv

    def test_a_valid_command_is_parsed_once(self, capsys, parses, k2_instance, k3_edges):
        for argv in (
            ["check", "--instance", k2_instance, "--format", "json"],
            ["search", "--graph", k3_edges, "-a", "1", "-k", "2"],
            ["verify-lemma", "--lemma", "5", "--trials", "20"],
        ):
            parses.clear()
            run(capsys, *argv)
            assert [prog for prog, _ in parses] == [f"hrcolor {argv[0]}"], argv

    def test_leftover_flags_fall_back_to_the_full_parser(self, capsys, parses):
        rc, out, err = run(capsys, "check", "--no-such-flag")
        # the command's parse, then the full parse with its nested one
        assert [prog for prog, _ in parses] == ["hrcolor check", "hrcolor check", "hrcolor"]
        assert (rc, out) == (2, "")
        assert err.startswith("usage: hrcolor [-h]")
        assert err.endswith("error: unrecognized arguments: --no-such-flag\n")
