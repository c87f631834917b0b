"""Command-line interface.

Subcommands: check, construct, search, verify-lemma, table. Exit codes are
a stable contract: 0 pass/sat, 1 fail/unsat, 2 usage or parse error,
3 unknown (budget exhausted). Documents go to stdout, diagnostics to
stderr. Structured mode emits one JSON object; human and structured mode
always agree on verdicts.

Every command but `construct`, which writes a bare instance document,
builds its report's JSON object and human text side by side and hands both
to `_emit`, the one writer of every report; `_EXIT` is the one map from a
report's verdict to its exit code.

`main` first reads the command line off the command's table, which maps
each of the command's option strings to the argparse Action that declared
it. The table reads only `command (--flag value | --switch)*`: each flag
an exact option string of that command, each value not starting with `-`,
converted by the Action's type and within its choices, and every required
flag present; it fills in the defaults as a parse would. Anything else
(help, `=` forms, abbreviations, `--`, a negative number, a bad value, a
missing flag, a leftover word) is parsed by the full argparse parser,
which accepts every spelling it always did and prints the same help and
usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Mapping

from . import codec, constructions, lemmas, search
from .checker import check_highly, sample_check
from .constructions import ColoredInstance
from .graph import VertexSet

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3

DEFAULT_BUDGET = 10**6
DEFAULT_TRIALS = 10**4
DEFAULT_SEED = 0


def _vs_json(vs: VertexSet | None) -> list[int] | None:
    return None if vs is None else list(vs)


def _vs_human(vs: VertexSet | None) -> str:
    if vs is None:
        return "-"
    return "{" + ", ".join(str(v) for v in vs) + "}"


def _read(path: str) -> str:
    # utf-8-sig: a byte-order mark that starts the file is not text
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


# every verdict a report can end in, and its exit code
_EXIT = {
    "pass": EXIT_PASS,
    "fail": EXIT_FAIL,
    search.SAT: EXIT_PASS,
    search.UNSAT: EXIT_FAIL,
    search.UNKNOWN: EXIT_UNKNOWN,
    "found": EXIT_PASS,
    "none": EXIT_FAIL,
    "found-sat": EXIT_PASS,
    "all-unsat": EXIT_FAIL,
}


def _emit(fmt: str, obj: dict[str, Any], human: str, verdict: str,
          witness: ColoredInstance | None = None) -> int:
    """Write one report in `fmt` and return the exit code of its verdict.

    JSON mode writes `obj`, with the witness document under its `witness`
    key; human mode writes `human`, then the witness document.
    """
    if fmt == "json":
        if witness is not None:
            obj["witness"] = codec.instance_object(witness)
        sys.stdout.write(json.dumps(obj) + "\n")
    else:
        sys.stdout.write(human)
        if witness is not None:
            sys.stdout.write(codec.encode_instance(witness))
    return _EXIT[verdict]


# ---------------------------------------------------------------- commands


def cmd_check(args: argparse.Namespace) -> int:
    if args.seed is not None and args.sample is None:
        raise ValueError("--seed needs --sample")
    if args.instance is not None:
        if args.graph is not None or args.coloring is not None:
            raise ValueError("--instance cannot be combined with --graph or --coloring")
        inst = codec.decode_instance(_read(args.instance))
        g, kappa, name = inst.graph, inst.coloring, inst.name
        a = args.attackers if args.attackers is not None else inst.attackers
    elif args.graph is not None and args.coloring is not None:
        g = codec.decode_edge_list(_read(args.graph))
        kappa = codec.decode_coloring(_read(args.coloring))
        name, a = None, args.attackers
    else:
        raise ValueError("check needs --instance, or --graph with --coloring")
    if a is None:
        raise ValueError("no attack size: pass -a or use an instance that records one")
    n, k = g.n, kappa.palette_size
    if args.sample is not None:
        seed = DEFAULT_SEED if args.seed is None else args.seed
        rep = sample_check(g, kappa, a, args.sample, seed, workers=args.threads)
        obj: dict[str, Any] = {
            "report": "sample-check",
            "name": name,
            "n": n,
            "k": k,
            "attackers": a,
            "trials": rep.trials,
            "hr_failures": rep.hr_failures,
            "resistance_failures": rep.resistance_failures,
            "first_hr_failure": _vs_json(rep.first_hr_failure),
            "first_resistance_failure": _vs_json(rep.first_resistance_failure),
            "seed": rep.seed,
            "workers": rep.workers,
        }
        hr_first = f"  first {_vs_human(rep.first_hr_failure)}" if rep.hr_failures else ""
        res_first = (f"  first {_vs_human(rep.first_resistance_failure)}"
                     if rep.resistance_failures else "")
        human = (
            f"sampled check: trials={rep.trials} seed={rep.seed} "
            f"workers={rep.workers} (n={n}, k={k}, attackers={a})\n"
            f"hold-condition failures: {rep.hr_failures}{hr_first}\n"
            f"resistance failures: {rep.resistance_failures}{res_first}\n"
        )
        failed = rep.hr_failures or rep.resistance_failures
        return _emit(args.format, obj, human, "fail" if failed else "pass")
    rep = check_highly(g, kappa, a)
    obj = {
        "report": "check",
        "name": name,
        "n": n,
        "k": k,
        "attackers": a,
        "hr_holds": rep.hr_holds,
        "hr_witness": _vs_json(rep.hr_witness),
        "resistant": rep.resistant,
        "resistance_witness": _vs_json(rep.resistance_witness),
        "highly_resistant": rep.highly_resistant,
        "attack_sets_examined": rep.attack_sets_examined,
        "threads": args.threads,
    }
    hold = ("holds (no attack set has every color)" if rep.hr_holds
            else f"FAILS  witness {_vs_human(rep.hr_witness)}")
    resistance = ("holds (every attack leaves a full-color component)" if rep.resistant
                  else f"FAILS  witness {_vs_human(rep.resistance_witness)}")
    human = (
        f"instance: {name if name is not None else 'unnamed'} "
        f"(n={n}, k={k}, attackers={a})\n"
        f"hold condition: {hold}\n"
        f"resistance: {resistance}\n"
        f"highly resistant: {'yes' if rep.highly_resistant else 'no'}\n"
        f"attack sets examined: {rep.attack_sets_examined}\n"
    )
    return _emit(args.format, obj, human, "pass" if rep.highly_resistant else "fail")


def cmd_construct(args: argparse.Namespace) -> int:
    inst = constructions.instance(args.family)
    sys.stdout.write(codec.encode_instance(inst))
    return _EXIT["pass"]


def cmd_search(args: argparse.Namespace) -> int:
    witness = None
    if args.nonexistence and (args.graph is not None or args.k is not None or args.min_colors):
        raise ValueError("--nonexistence cannot be combined with --graph, -k or --min-colors")
    if args.min_colors and args.k is not None:
        raise ValueError("--min-colors cannot be combined with -k")
    if args.min_colors and args.n is not None:
        raise ValueError("--min-colors cannot be combined with -n")
    if args.k is not None and (args.n is not None or args.kmax is not None):
        raise ValueError("-k cannot be combined with -n or --kmax")
    if args.nonexistence:
        if args.n is None:
            raise ValueError("--nonexistence needs -n")
        if args.kmax is None:
            raise ValueError("--nonexistence needs --kmax")
        summary = search.exhaustive_nonexistence(args.n, args.attackers, args.kmax, args.budget)
        if summary.outcome == "found-sat":
            witness = ColoredInstance(
                f"sat-n{summary.n}-a{summary.a}-k{summary.sat_k}",
                summary.sat_graph, summary.sat_witness, summary.a,
            )
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
            "witness": None,
            "every_palette": summary.every_palette,
        }
        human = (
            f"nonexistence sweep: n={summary.n} a={summary.a} "
            f"k in [{summary.a + 1}, {summary.k_max}] budget={summary.budget}\n"
            f"outcome: {summary.outcome} "
            f"({summary.graphs_examined}/{summary.graphs_total} labeled graphs, "
            f"{summary.nodes_expanded} nodes, "
            f"every palette: {'yes' if summary.every_palette else 'no'})\n"
        )
        return _emit(args.format, obj, human, summary.outcome, witness)

    if args.graph is None:
        raise ValueError("search needs --graph (or --nonexistence)")
    g = codec.decode_edge_list(_read(args.graph))

    if args.min_colors:
        if args.kmax is None:
            raise ValueError("--min-colors needs --kmax")
        result = search.min_colors(g, args.attackers, args.kmax, args.budget)
        if result.status == "found":
            sat = dict(result.trail)[result.value]
            witness = ColoredInstance(
                f"min-colors-k{result.value}", g, sat.witness, args.attackers
            )
        obj = {
            "report": "min-colors",
            "status": result.status,
            "value": result.value,
            "attackers": args.attackers,
            "k_max": args.kmax,
            "budget": args.budget,
            "trail": [
                {"k": k, "outcome": d.outcome, "nodes_expanded": d.nodes_expanded}
                for k, d in result.trail
            ],
            "witness": None,
        }
        human = {
            "found": f"minimum colors: {result.value}\n",
            "none": f"no palette up to k_max={args.kmax} works (all unsat)\n",
            "unknown": "undetermined: a search ran out of budget\n",
        }[result.status]
        return _emit(args.format, obj, human, result.status, witness)

    if args.k is None:
        raise ValueError("search needs -k (or --min-colors/--nonexistence)")
    d = search.decide(g, args.attackers, args.k, args.budget)
    if d.outcome == search.SAT:
        witness = ColoredInstance(
            f"sat-a{args.attackers}-k{args.k}", g, d.witness, args.attackers
        )
    obj = {
        "report": "search",
        "attackers": args.attackers,
        "k": args.k,
        "n": g.n,
        "outcome": d.outcome,
        "nodes_expanded": d.nodes_expanded,
        "budget": d.budget,
        "witness": None,
    }
    human = (
        f"decide: n={g.n} a={args.attackers} k={args.k} -> {d.outcome} "
        f"({d.nodes_expanded} nodes, budget {d.budget})\n"
    )
    return _emit(args.format, obj, human, d.outcome, witness)


def cmd_verify_lemma(args: argparse.Namespace) -> int:
    report = lemmas.run_lemma(args.lemma, args.trials, args.seed)
    scope = lemmas.SCOPES[args.lemma]
    verdict = "fail" if report.violations else "pass"
    obj: dict[str, Any] = {
        "report": "verify-lemma",
        "lemma": report.lemma_id,
        "scope": scope.description,
        "trials": report.trials,
        "seed": report.seed,
        "violations": report.violations,
        "resistance_checked": report.resistance_checked,
        "palette_short": report.palette_short,
    }
    human = (
        f"lemma {report.lemma_id} ({scope.description}): "
        f"trials={report.trials} seed={report.seed} "
        f"violations={report.violations} "
        f"resistance_checked={report.resistance_checked} "
        f"palette_short={report.palette_short} {verdict.upper()}\n"
    )
    code = _emit(args.format, obj, human, verdict)
    if report.violations:
        v = report.first_violation
        witness = ColoredInstance(f"lemma-{args.lemma}-violation", v.graph, v.coloring, None)
        sys.stderr.write(
            f"counterexample at trial {v.trial_index} "
            f"(hold size {v.a_hr}, resistance size {v.r}):\n" + codec.encode_instance(witness)
        )
    return code


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
    certified: list[dict[str, Any]] = []
    human = f"{'a':>2}  {'n':<12} {'K':>4}  proven by\n"
    for row in search.k_table(args.max_a):
        if not search.certify_table_row(row):
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
        provenance = " + ".join(row.proven_by) if row.proven_by else "(open)"
        if row.instance_name:
            provenance += f" [{row.instance_name}]"
        if row.note:
            provenance += f"  ({row.note})"
        human += (f"{row.attackers:>2}  {_format_row_range(row):<12} "
                  f"{_format_row_value(row):>4}  {provenance}\n")
    obj = {"report": "k-table", "max_a": args.max_a, "rows": certified}
    return _emit(args.format, obj, human, "pass")


# ---------------------------------------------------------------- parser


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {raw!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    return _build()[0]


# a command's table: each of its option strings to the Action that declared
# it, the namespace of a call that passes no flag, and its required Actions
_Table = tuple[Mapping[str, argparse.Action], Mapping[str, Any], frozenset]


def _build() -> tuple[argparse.ArgumentParser, Mapping[str, _Table]]:
    """The full parser, and each command's table by command name."""
    parser = argparse.ArgumentParser(
        prog="hrcolor",
        description="Verify, construct, and search for highly attack-resistant "
        "vertex multicolorings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options: dict[str, dict[str, argparse.Action]] = {}

    def command(name: str, func: Callable[[argparse.Namespace], int],
                help: str) -> Callable[..., None]:
        """Add a command's parser; returns its add_argument, which also
        enters each option string into the command's table."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        table = options[name] = {}

        def flag(*names: str, **kw: Any) -> None:
            table.update(dict.fromkeys(names, p.add_argument(*names, **kw)))

        return flag

    p_check = command("check", cmd_check, "verify an instance exhaustively or by sampling")
    p_check("--instance", help="instance document path")
    p_check("--graph", help="edge-list path (with --coloring)")
    p_check("--coloring", help="coloring document path (with --graph)")
    p_check("-a", "--attackers", type=int, default=None,
            help="attack size (defaults to the instance's value)")
    p_check("--sample", type=int, default=None, metavar="TRIALS",
            help="sample attack sets instead of full enumeration")
    p_check("--seed", type=int, default=None,
            help=f"sampling seed, with --sample (default: {DEFAULT_SEED})")

    p_construct = command("construct", cmd_construct, "emit a named instance document")
    p_construct("--family", required=True,
                help="one of: " + ", ".join(constructions.FAMILY_NAMES))

    p_search = command("search", cmd_search, "decide existence, scan palettes, or sweep graphs")
    p_search("--graph", help="edge-list path")
    p_search("-a", "--attackers", type=int, required=True)
    p_search("-k", type=int, default=None, help="palette size to decide")
    p_search("--budget", type=int, default=DEFAULT_BUDGET,
             help=f"search node budget (default: {DEFAULT_BUDGET})")
    p_search("--min-colors", action="store_true",
             help="scan k = a+1..kmax for the smallest sat palette")
    p_search("--nonexistence", action="store_true",
             help="sweep all labeled graphs on n vertices")
    p_search("-n", type=int, default=None, help="vertex count for --nonexistence")
    p_search("--kmax", type=int, default=None,
             help="largest palette size for --min-colors/--nonexistence")

    p_lemma = command("verify-lemma", cmd_verify_lemma, "run a randomized disjunction suite")
    p_lemma("--lemma", type=int, required=True,
            help="suite id, one of: " + ", ".join(map(str, lemmas.LEMMA_IDS)))
    p_lemma("--trials", type=int, default=DEFAULT_TRIALS,
            help=f"trial count (default: {DEFAULT_TRIALS})")
    p_lemma("--seed", type=int, default=DEFAULT_SEED, help=f"seed (default: {DEFAULT_SEED})")

    p_table = command("table", cmd_table, "print the minimum-color table, re-certified")
    p_table("--max-a", type=int, default=4, help="largest attack size to include (at most 4)")

    for flag in (p_check, p_construct, p_search, p_lemma, p_table):
        flag("--format", choices=("human", "json"), default="human",
             help="output format (default: human)")
        flag("--threads", type=_positive_int, default=1,
             help="sampling substream count for check --sample; "
             "scans are sequential (default: 1)")

    # every flag is a store or store_true action, and no default is a
    # string that argparse would pass through the flag's type
    tables = {}
    for name, table in options.items():
        actions = set(table.values())
        base = {a.dest: a.default for a in actions}
        base.update(command=name, func=sub.choices[name].get_default("func"))
        tables[name] = table, base, frozenset(a for a in actions if a.required)
    return parser, tables


def _from_table(tables: Mapping[str, _Table], argv: list[str]) -> argparse.Namespace | None:
    """`argv` read off its command's table, or None where argparse must
    read it (module docstring)."""
    table = tables.get(argv[0]) if argv else None
    if table is None:
        return None
    options, base, required = table
    values = dict(base)
    seen = set()
    words = iter(argv[1:])
    for word in words:
        action = options.get(word)
        if action is None:
            return None
        if action.nargs == 0:  # a switch
            values[action.dest] = action.const
        else:
            raw = next(words, "-")
            if raw.startswith("-"):
                return None
            try:
                value = raw if action.type is None else action.type(raw)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
            values[action.dest] = value
        seen.add(action)
    return argparse.Namespace(**values) if required <= seen else None


_built: tuple[argparse.ArgumentParser, Mapping[str, _Table]] | None = None


def main(argv: list[str] | None = None) -> int:
    # built on the first call and reused: building it costs more than a
    # small check, and argparse looks up sys.stdout and sys.stderr only
    # when it prints
    global _built
    if _built is None:
        _built = _build()
    parser, tables = _built
    if argv is None:
        argv = sys.argv[1:]
    args = _from_table(tables, argv)
    if args is None:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return EXIT_PASS if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except ValueError as exc:  # a codec.CodecError is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
