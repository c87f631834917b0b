"""Command-line interface.

Subcommands: check, construct, search, verify-lemma, table. Exit codes are
a stable contract: 0 pass/sat, 1 fail/unsat, 2 usage or parse error,
3 unknown (budget exhausted). Documents go to stdout, diagnostics to
stderr. Structured mode emits one JSON object; human and structured mode
always agree on verdicts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

from . import codec, constructions, lemmas, search
from .checker import CheckReport, SampleReport, check_highly, sample_check
from .coloring import Multicoloring
from .constructions import ColoredInstance
from .graph import Graph, VertexSet

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3

DEFAULT_BUDGET = 10**6
DEFAULT_TRIALS = 10**4
DEFAULT_SEED = 0
THREADS_ENV = "HRCOLOR_THREADS"


def default_threads() -> int:
    """Thread count: the HRCOLOR_THREADS variable when set, else all cores."""
    raw = os.environ.get(THREADS_ENV)
    if raw is not None:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
        if value < 1:
            raise ValueError(f"{THREADS_ENV} must be positive, got {value}")
        return value
    return os.cpu_count() or 1


def _vs_json(vs: VertexSet | None) -> list[int] | None:
    return None if vs is None else list(vs)


def _vs_human(vs: VertexSet | None) -> str:
    if vs is None:
        return "-"
    return "{" + ", ".join(str(v) for v in vs) + "}"


def render_check_report(
    report: CheckReport, *, a: int, n: int, k: int, name: str | None,
    threads: int, fmt: str,
) -> str:
    if fmt == "json":
        obj: dict[str, Any] = {
            "report": "check",
            "name": name,
            "n": n,
            "k": k,
            "attackers": a,
            "hr_holds": report.hr_holds,
            "hr_witness": _vs_json(report.hr_witness),
            "resistant": report.resistant,
            "resistance_witness": _vs_json(report.resistance_witness),
            "highly_resistant": report.highly_resistant,
            "attack_sets_examined": report.attack_sets_examined,
            "threads": threads,
        }
        return json.dumps(obj) + "\n"
    lines = []
    label = name if name is not None else "unnamed"
    lines.append(f"instance: {label} (n={n}, k={k}, attackers={a})")
    if report.hr_holds:
        lines.append("hold condition: holds (no attack set has every color)")
    else:
        lines.append(f"hold condition: FAILS  witness {_vs_human(report.hr_witness)}")
    if report.resistant:
        lines.append("resistance: holds (every attack leaves a full-color component)")
    else:
        lines.append(
            f"resistance: FAILS  witness {_vs_human(report.resistance_witness)}"
        )
    verdict = "yes" if report.highly_resistant else "no"
    lines.append(f"highly resistant: {verdict}")
    lines.append(f"attack sets examined: {report.attack_sets_examined}")
    return "\n".join(lines) + "\n"


def render_sample_report(
    report: SampleReport, *, a: int, n: int, k: int, name: str | None, fmt: str
) -> str:
    if fmt == "json":
        obj = {
            "report": "sample-check",
            "name": name,
            "n": n,
            "k": k,
            "attackers": a,
            "trials": report.trials,
            "hr_failures": report.hr_failures,
            "resistance_failures": report.resistance_failures,
            "first_hr_failure": _vs_json(report.first_hr_failure),
            "first_resistance_failure": _vs_json(report.first_resistance_failure),
            "seed": report.seed,
            "workers": report.workers,
        }
        return json.dumps(obj) + "\n"
    lines = [
        f"sampled check: trials={report.trials} seed={report.seed} "
        f"workers={report.workers} (n={n}, k={k}, attackers={a})",
        f"hold-condition failures: {report.hr_failures}"
        + (f"  first {_vs_human(report.first_hr_failure)}" if report.hr_failures else ""),
        f"resistance failures: {report.resistance_failures}"
        + (
            f"  first {_vs_human(report.first_resistance_failure)}"
            if report.resistance_failures
            else ""
        ),
    ]
    return "\n".join(lines) + "\n"


def _witness_instance(g: Graph, kappa: Multicoloring, a: int | None, name: str) -> ColoredInstance:
    return ColoredInstance(name=name, graph=g, coloring=kappa, attackers=a)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


# ---------------------------------------------------------------- commands


def _resolve_threads(args: argparse.Namespace) -> int:
    threads = args.threads if args.threads is not None else default_threads()
    if threads < 1:
        raise ValueError("--threads must be positive")
    return threads


def cmd_check(args: argparse.Namespace) -> int:
    threads = _resolve_threads(args)
    if args.instance is not None:
        inst = codec.decode_instance(_read(args.instance))
        g, kappa, name = inst.graph, inst.coloring, inst.name
        a = args.attackers if args.attackers is not None else inst.attackers
    else:
        g = codec.decode_edge_list(_read(args.graph))
        kappa = codec.decode_coloring(_read(args.coloring))
        name, a = None, args.attackers
    if a is None:
        raise ValueError("no attack size: pass -a or use an instance that records one")
    if args.sample is not None:
        rep = sample_check(g, kappa, a, args.sample, args.seed, workers=threads)
        sys.stdout.write(
            render_sample_report(
                rep, a=a, n=g.n, k=kappa.palette_size, name=name, fmt=args.format
            )
        )
        failed = rep.hr_failures or rep.resistance_failures
        return EXIT_FAIL if failed else EXIT_PASS
    rep = check_highly(g, kappa, a, threads=threads)
    sys.stdout.write(
        render_check_report(
            rep, a=a, n=g.n, k=kappa.palette_size, name=name,
            threads=threads, fmt=args.format,
        )
    )
    return EXIT_PASS if rep.highly_resistant else EXIT_FAIL


def cmd_construct(args: argparse.Namespace) -> int:
    inst = constructions.instance(args.family)
    sys.stdout.write(codec.encode_instance(inst))
    return EXIT_PASS


def _decision_json(d: search.Decision, extra: dict[str, Any]) -> dict[str, Any]:
    obj: dict[str, Any] = {"report": "search", **extra}
    obj["outcome"] = d.outcome
    obj["nodes_expanded"] = d.nodes_expanded
    obj["budget"] = d.budget
    return obj


def cmd_search(args: argparse.Namespace) -> int:
    budget = args.budget
    if args.nonexistence:
        if args.n is None:
            raise ValueError("--nonexistence needs -n")
        if args.kmax is None:
            raise ValueError("--nonexistence needs --kmax")
        summary = search.exhaustive_nonexistence(args.n, args.attackers, args.kmax, budget)
        witness = None
        if summary.outcome == "found-sat":
            witness = _witness_instance(
                summary.sat_graph, summary.sat_witness, summary.a,
                f"sat-n{summary.n}-a{summary.a}-k{summary.sat_k}",
            )
        if args.format == "json":
            obj: dict[str, Any] = {
                "report": "nonexistence",
                "outcome": summary.outcome,
                "n": summary.n,
                "attackers": summary.a,
                "k_max": summary.k_max,
                "budget": summary.budget,
                "graphs_total": summary.graphs_total,
                "graphs_examined": summary.graphs_examined,
                "unknown_count": summary.unknown_count,
                "nodes_expanded": summary.nodes_expanded,
                "sat_k": summary.sat_k,
                "witness": None if witness is None else codec.instance_object(witness),
            }
            sys.stdout.write(json.dumps(obj) + "\n")
        else:
            sys.stdout.write(
                f"nonexistence sweep: n={summary.n} a={summary.a} "
                f"k in [{summary.a + 1}, {summary.k_max}] budget={summary.budget}\n"
                f"outcome: {summary.outcome} "
                f"({summary.graphs_examined}/{summary.graphs_total} labeled graphs, "
                f"{summary.nodes_expanded} nodes)\n"
            )
            if witness is not None:
                sys.stdout.write(codec.encode_instance(witness))
        if summary.outcome == "found-sat":
            return EXIT_PASS
        return EXIT_FAIL if summary.outcome == "all-unsat" else EXIT_UNKNOWN

    if args.graph is None:
        raise ValueError("search needs --graph (or --nonexistence)")
    g = codec.decode_edge_list(_read(args.graph))

    if args.min_colors:
        if args.kmax is None:
            raise ValueError("--min-colors needs --kmax")
        result = search.min_colors(g, args.attackers, args.kmax, budget)
        witness = None
        if result.status == "found":
            sat = dict(result.trail)[result.value]
            witness = _witness_instance(
                g, sat.witness, args.attackers, f"min-colors-k{result.value}"
            )
        if args.format == "json":
            obj = {
                "report": "min-colors",
                "status": result.status,
                "value": result.value,
                "attackers": args.attackers,
                "k_max": args.kmax,
                "budget": budget,
                "trail": [
                    {"k": k, "outcome": d.outcome, "nodes_expanded": d.nodes_expanded}
                    for k, d in result.trail
                ],
                "witness": None if witness is None else codec.instance_object(witness),
            }
            sys.stdout.write(json.dumps(obj) + "\n")
        else:
            if result.status == "found":
                sys.stdout.write(f"minimum colors: {result.value}\n")
            elif result.status == "none":
                sys.stdout.write(
                    f"no palette up to k_max={args.kmax} works (all unsat)\n"
                )
            else:
                sys.stdout.write("undetermined: a search ran out of budget\n")
            if witness is not None:
                sys.stdout.write(codec.encode_instance(witness))
        if result.status == "found":
            return EXIT_PASS
        return EXIT_FAIL if result.status == "none" else EXIT_UNKNOWN

    if args.k is None:
        raise ValueError("search needs -k (or --min-colors/--nonexistence)")
    d = search.decide(g, args.attackers, args.k, budget)
    witness = None
    if d.outcome == search.SAT:
        witness = _witness_instance(
            g, d.witness, args.attackers, f"sat-a{args.attackers}-k{args.k}"
        )
    if args.format == "json":
        obj = _decision_json(d, {"attackers": args.attackers, "k": args.k, "n": g.n})
        obj["witness"] = None if witness is None else codec.instance_object(witness)
        sys.stdout.write(json.dumps(obj) + "\n")
    else:
        sys.stdout.write(
            f"decide: n={g.n} a={args.attackers} k={args.k} -> {d.outcome} "
            f"({d.nodes_expanded} nodes, budget {d.budget})\n"
        )
        if witness is not None:
            sys.stdout.write(codec.encode_instance(witness))
    if d.outcome == search.SAT:
        return EXIT_PASS
    return EXIT_FAIL if d.outcome == search.UNSAT else EXIT_UNKNOWN


def cmd_verify_lemma(args: argparse.Namespace) -> int:
    report = lemmas.run_lemma(args.lemma, args.trials, args.seed)
    scope = lemmas.SCOPES[args.lemma]
    if args.format == "json":
        obj: dict[str, Any] = {
            "report": "verify-lemma",
            "lemma": report.lemma_id,
            "scope": scope.description,
            "trials": report.trials,
            "seed": report.seed,
            "violations": report.violations,
        }
        sys.stdout.write(json.dumps(obj) + "\n")
    else:
        verdict = "PASS" if report.violations == 0 else "FAIL"
        sys.stdout.write(
            f"lemma {report.lemma_id} ({scope.description}): "
            f"trials={report.trials} seed={report.seed} "
            f"violations={report.violations} {verdict}\n"
        )
    if report.violations:
        v = report.first_violation
        sys.stderr.write(
            f"counterexample at trial {v.trial_index} "
            f"(hold size {v.a_hr}, resistance size {v.r}):\n"
        )
        sys.stderr.write(
            codec.encode_instance(
                _witness_instance(v.graph, v.coloring, None, f"lemma-{args.lemma}-violation")
            )
        )
        return EXIT_FAIL
    return EXIT_PASS


def _format_row_value(row: search.KEntry) -> str:
    if row.infinite:
        return "inf"
    if row.value is None:
        return "?"
    return str(row.value)


def _format_row_range(row: search.KEntry) -> str:
    if row.n_hi is None:
        return f"n>={row.n_lo}"
    if row.n_lo == row.n_hi:
        return f"n={row.n_lo}"
    if row.n_lo <= 1:
        return f"n<={row.n_hi}"
    return f"{row.n_lo}<=n<={row.n_hi}"


def cmd_table(args: argparse.Namespace) -> int:
    threads = _resolve_threads(args)
    rows = search.k_table(args.max_a)
    certified: list[dict[str, Any]] = []
    for row in rows:
        ok = search.certify_table_row(row, threads=threads)
        if not ok:
            raise ValueError(
                f"re-certification failed for row a={row.attackers} "
                f"{_format_row_range(row)}"
            )
        certified.append(
            {
                "attackers": row.attackers,
                "n_lo": row.n_lo,
                "n_hi": row.n_hi,
                "value": row.value,
                "infinite": row.infinite,
                "proven_by": list(row.proven_by),
                "instance": row.instance_name,
                "note": row.note,
            }
        )
    if args.format == "json":
        sys.stdout.write(
            json.dumps({"report": "k-table", "max_a": args.max_a, "rows": certified})
            + "\n"
        )
        return EXIT_PASS
    sys.stdout.write(f"{'a':>2}  {'n':<12} {'K':>4}  proven by\n")
    for row in rows:
        provenance = " + ".join(row.proven_by) if row.proven_by else "(open)"
        if row.instance_name:
            provenance += f" [{row.instance_name}]"
        line = f"{row.attackers:>2}  {_format_row_range(row):<12} {_format_row_value(row):>4}  {provenance}"
        if row.note:
            line += f"  ({row.note})"
        sys.stdout.write(line + "\n")
    return EXIT_PASS


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hrcolor",
        description="Verify, construct, and search for highly attack-resistant "
        "vertex multicolorings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("human", "json"), default="human",
                       help="output format (default: human)")
        p.add_argument("--threads", type=int, default=None,
                       help=f"worker threads (default: ${THREADS_ENV} or all cores)")

    p_check = sub.add_parser("check", help="verify an instance exhaustively or by sampling")
    p_check.add_argument("--instance", help="instance document path")
    p_check.add_argument("--graph", help="edge-list path (with --coloring)")
    p_check.add_argument("--coloring", help="coloring document path (with --graph)")
    p_check.add_argument("-a", "--attackers", type=int, default=None,
                         help="attack size (defaults to the instance's value)")
    p_check.add_argument("--sample", type=int, default=None, metavar="TRIALS",
                         help="sample attack sets instead of full enumeration")
    p_check.add_argument("--seed", type=int, default=DEFAULT_SEED,
                         help=f"sampling seed (default: {DEFAULT_SEED})")
    add_common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_construct = sub.add_parser("construct", help="emit a named instance document")
    p_construct.add_argument("--family", required=True,
                             help="one of: " + ", ".join(constructions.FAMILY_NAMES))
    add_common(p_construct)
    p_construct.set_defaults(func=cmd_construct)

    p_search = sub.add_parser("search", help="decide existence, scan palettes, or sweep graphs")
    p_search.add_argument("--graph", help="edge-list path")
    p_search.add_argument("-a", "--attackers", type=int, required=True)
    p_search.add_argument("-k", type=int, default=None, help="palette size to decide")
    p_search.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                          help=f"search node budget (default: {DEFAULT_BUDGET})")
    p_search.add_argument("--min-colors", action="store_true",
                          help="scan k = a+1..kmax for the smallest sat palette")
    p_search.add_argument("--nonexistence", action="store_true",
                          help="sweep all labeled graphs on n vertices")
    p_search.add_argument("-n", type=int, default=None,
                          help="vertex count for --nonexistence")
    p_search.add_argument("--kmax", type=int, default=None,
                          help="largest palette size for --min-colors/--nonexistence")
    add_common(p_search)
    p_search.set_defaults(func=cmd_search)

    p_lemma = sub.add_parser("verify-lemma", help="run a randomized disjunction suite")
    p_lemma.add_argument("--lemma", type=int, required=True,
                         help="suite id, one of: " + ", ".join(map(str, lemmas.LEMMA_IDS)))
    p_lemma.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                         help=f"trial count (default: {DEFAULT_TRIALS})")
    p_lemma.add_argument("--seed", type=int, default=DEFAULT_SEED,
                         help=f"seed (default: {DEFAULT_SEED})")
    add_common(p_lemma)
    p_lemma.set_defaults(func=cmd_verify_lemma)

    p_table = sub.add_parser("table", help="print the minimum-color table, re-certified")
    p_table.add_argument("--max-a", type=int, default=4,
                         help="largest attack size to include (at most 4)")
    add_common(p_table)
    p_table.set_defaults(func=cmd_table)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    # built on the first call and reused: building it costs more than a
    # small check, and argparse looks up sys.stdout and sys.stderr only
    # when it prints
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PASS if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except codec.CodecError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
