"""Exact bytes of every CLI report kind, in both output formats.

Each case runs `hrcolor.cli.main` in-process on small input files and
compares its stdout, stderr and exit code with `cli_golden.json`. A change
that is meant to keep the CLI's output must pass this test unchanged.

Re-record the golden file (only when an output change is intended) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from hrcolor import cli, lemmas

GOLDEN = Path(__file__).with_name("cli_golden.json")

FILES = {
    "2k2.edges": "4 2\n0 1\n2 3\n",
    "k3.edges": "3 3\n0 1\n1 2\n2 0\n",
    "2k2.coloring": '{"k": 2, "colors": [[1], [2], [1], [2]]}',
    "2k2.json": (
        '{"name": "two-k2", "n": 4, "edges": [[0, 1], [2, 3]], "k": 2, '
        '"attackers": 1, "colors": [[1], [2], [1], [2]]}'
    ),
    "k2.json": (
        '{"name": "k2-two-colors", "n": 2, "edges": [[0, 1]], "k": 2, '
        '"attackers": 1, "colors": [[1], [2]]}'
    ),
    "bad.json": "[]",
}

CASES = {
    "construct": ["construct", "--family", "paper-14"],
    "check-pass": ["check", "--instance", "2k2.json"],
    "check-pass-graph": ["check", "--graph", "2k2.edges", "--coloring", "2k2.coloring", "-a", "1"],
    "check-fail": ["check", "--instance", "k2.json"],
    "sample-pass": ["check", "--instance", "2k2.json", "--sample", "20", "--seed", "5"],
    "sample-fail": ["check", "--instance", "2k2.json", "-a", "2", "--sample", "20",
                    "--seed", "5", "--threads", "3"],
    "decide-sat": ["search", "--graph", "2k2.edges", "-a", "1", "-k", "2"],
    "decide-unsat": ["search", "--graph", "k3.edges", "-a", "1", "-k", "2"],
    "decide-unknown": ["search", "--graph", "2k2.edges", "-a", "1", "-k", "2", "--budget", "0"],
    "min-colors-found": ["search", "--graph", "2k2.edges", "-a", "1", "--min-colors",
                         "--kmax", "3"],
    "min-colors-none": ["search", "--graph", "k3.edges", "-a", "1", "--min-colors",
                        "--kmax", "3"],
    "min-colors-unknown": ["search", "--graph", "2k2.edges", "-a", "1", "--min-colors",
                           "--kmax", "3", "--budget", "0"],
    "sweep-all-unsat": ["search", "--nonexistence", "-n", "3", "-a", "1", "--kmax", "4"],
    "sweep-found-sat": ["search", "--nonexistence", "-n", "4", "-a", "1", "--kmax", "2"],
    "sweep-unknown": ["search", "--nonexistence", "-n", "4", "-a", "1", "--kmax", "2",
                      "--budget", "0"],
    "verify-lemma": ["verify-lemma", "--lemma", "5", "--trials", "50", "--seed", "0"],
    # every trial counts as a violation, so the counterexample path runs;
    # each of the three trials has its full palette (palette_short=0), so
    # each reaches the patched hold test and resistance scan
    "verify-lemma-violation": ["verify-lemma", "--lemma", "9", "--trials", "3", "--seed", "1"],
    "table": ["table", "--max-a", "2"],
    "usage-search-no-k": ["search", "--graph", "2k2.edges", "-a", "1"],
    "usage-unreadable": ["check", "--instance", "missing.json", "-a", "1"],
    "usage-bad-document": ["check", "--instance", "bad.json"],
}

FORMATS = ("json", "human")


def run_case(case: str, fmt: str, directory: Path) -> dict:
    """Run one case in `directory` (which must hold FILES) and return its
    exit code and output streams."""
    argv = CASES[case] + ["--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    saved_dir, saved_checks = os.getcwd(), (lemmas._first_cover, lemmas._scan)
    if case == "verify-lemma-violation":
        # no covering set and no failing attack: every trial violates
        lemmas._first_cover = lambda *args: None
        lemmas._scan = lambda *args: None
    try:
        os.chdir(directory)
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    finally:
        os.chdir(saved_dir)
        lemmas._first_cover, lemmas._scan = saved_checks
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def write_files(directory: Path) -> None:
    for name, text in FILES.items():
        (directory / name).write_text(text, encoding="utf-8")


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_bytes_match_the_golden_record(golden, tmp_path, case, fmt):
    write_files(tmp_path)
    assert run_case(case, fmt, tmp_path) == golden[f"{case} {fmt}"]


def record(path: Path) -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        write_files(directory)
        records = {
            f"{case} {fmt}": run_case(case, fmt, directory)
            for case in sorted(CASES) for fmt in FORMATS
        }
    path.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {path}", file=sys.stderr)


if __name__ == "__main__":
    record(GOLDEN)
