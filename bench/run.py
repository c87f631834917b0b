"""Benchmark runner for hrcolor.

    python3 bench/run.py --workload check-structured --seed 1 --seconds 25 --trace 0

Runs one workload as a single closed-loop client: one process, one op in
flight, where an op is a call to `hrcolor.cli.main(argv)` with its stdout
captured. Inputs are generated from `--seed` by bench/workloads.py and
every report is checked against an independent reference after the timed
passes. The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end metrics listed in BENCHMARK.json; with
`--trace 1` they are the per-layer metrics from a traced run (see
bench/tracing.py). End-to-end times are scaled to a reference host speed
measured by `reference_kernel` between the passes; the summary line above
the result gives them unscaled as well. Run from anywhere inside a
checkout: the package is imported from the checkout's `src/`, the
references from `tests/`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path
from time import perf_counter

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, Docs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
SPEC = ROOT / "BENCHMARK.json"
SCRATCH = ROOT / ".bench_tmp"
SPANS = ROOT / ".bench_out"

# set-ups before every timed pass, so that set-up is sampled across the
# whole run, as the passes are, and not only at its start
SETUPS_PER_PASS = 4
# reference-kernel runs before every timed pass, and the kernel's time at
# the reference host speed that end-to-end times are scaled to
REFERENCE_RUNS = 6
REFERENCE_S = 0.012
THREADS_ENV = "HRCOLOR_THREADS"


def die(message: str) -> None:
    sys.stderr.write(f"bench: {message}\n")
    sys.exit(2)


def import_package():
    """Import hrcolor afresh from the checkout (so repeated calls time a
    real import) and return the package."""
    for name in [m for m in sys.modules if m == "hrcolor" or m.startswith("hrcolor.")]:
        del sys.modules[name]
    hr = importlib.import_module("hrcolor")
    importlib.import_module("hrcolor.cli")
    if not Path(hr.__file__).resolve().is_relative_to(SRC):
        die(f"imported hrcolor from {hr.__file__}, not from {SRC}")
    return hr


def set_up(workload_cls, seed: int, docdir: Path):
    """Import the package and build the workload's input documents."""
    start = perf_counter()
    hr = import_package()
    workload = workload_cls()
    ops = workload.build(hr, random.Random(seed), Docs(docdir))
    return perf_counter() - start, hr, workload, ops


def run_pass(hr, ops, threads: int, outcomes: list[dict], tracer=None):
    """Run every op once, in order. Returns (wall seconds, per-op seconds,
    per-op outcome keys); outcomes are also tallied into `outcomes`."""
    suffix = ("--threads", str(threads))
    latencies = []
    keys = []
    pass_start = perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                code = hr.cli.main([*op.argv, *suffix])
            except Exception:  # a traceback is a failed op, not a failed run
                code = "traceback: " + traceback.format_exc(limit=4)
            latencies.append(perf_counter() - start)
        key = (code, out.getvalue(), err.getvalue())
        keys.append(key)
        outcomes[i][key] = outcomes[i].get(key, 0) + 1
    return perf_counter() - pass_start, latencies, keys


def parse(key) -> tuple[dict | None, str | None]:
    code, out, err = key
    if not isinstance(code, int):
        return None, str(code)
    if err:
        return None, f"stderr: {err[:300]!r}"
    if out.count("\n") != 1 or not out.endswith("\n"):
        return None, "stdout is not exactly one line"
    try:
        report = json.loads(out)
    except ValueError:
        return None, "stdout is not JSON"
    return (report, None) if isinstance(report, dict) else (None, "report is not an object")


def pass_work(workload, ops, keys) -> int:
    total = 0
    for op, key in zip(ops, keys):
        report, err = parse(key)
        if err is None:
            try:
                total += workload.work(op, report)
            except (KeyError, TypeError):
                pass  # a malformed report is counted by verify_all
    return total


def verify_all(workload, ops, outcomes) -> tuple[int, int]:
    """Check every distinct outcome of every op; returns (attempted, failed).

    A mismatch counts as a failed op and never aborts the run."""
    sys.path.insert(0, str(TESTS))
    import oracles

    attempted = failed = 0
    shown = 0
    for i, op in enumerate(ops):
        for key, count in outcomes[i].items():
            attempted += count
            report, err = parse(key)
            if err is None:
                try:
                    err = workload.verify(oracles, op, key[0], report)
                except Exception as exc:  # a malformed report must not end the run
                    err = f"report check raised {exc!r}"
            if err:
                failed += count
                if shown < 5:
                    shown += 1
                    sys.stderr.write(f"bench: op {i} {' '.join(op.argv)}: {err}\n")
    return attempted, failed


def reference_kernel() -> int:
    """Fixed pure-Python work that shares no code with the package: bit-mask
    flood fills of a seeded 40-vertex graph after each of its 780 two-vertex
    attacks. Its time tracks how fast the host runs the interpreter."""
    rng = random.Random(12345)
    n = 40
    adj = [0] * n
    for _ in range(60):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    components = 0
    for x, y in combinations(range(n), 2):
        alive = ((1 << n) - 1) & ~((1 << x) | (1 << y))
        while alive:
            comp = frontier = alive & -alive
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                new = adj[bit.bit_length() - 1] & alive & ~comp
                comp |= new
                frontier |= new
            alive &= ~comp
            components += 1
    return components


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure(workload_cls, seed: int, seconds: float, docdir: Path):
    setups = []
    outcomes: list[dict] | None = None
    walls, rates, p50s, p90s, refs = [], [], [], [], []
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        # each pass runs on the package of the last set-up, so no state
        # carries over from one pass to the next
        for _ in range(SETUPS_PER_PASS):
            elapsed, hr, workload, ops = set_up(workload_cls, seed, docdir)
            setups.append(elapsed)
        if outcomes is None:
            outcomes = [{} for _ in ops]
        for _ in range(REFERENCE_RUNS):
            ref_start = perf_counter()
            reference_kernel()
            refs.append(perf_counter() - ref_start)
        gc.collect()  # the replaced imports are cyclic garbage; free them untimed
        wall, lat, keys = run_pass(hr, ops, workload.threads, outcomes)
        walls.append(wall)
        rates.append(pass_work(workload, ops, keys) / wall)
        # percentiles per pass, then the median over passes, so that a
        # few seconds of a slow host move one pass and not the tail
        p50s.append(statistics.median(lat))
        p90s.append(p90(lat))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wall = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(walls),
        "op_p50_ms": statistics.median(p50s) * 1e3,
        "op_p90_ms": statistics.median(p90s) * 1e3,
        "work_per_s": statistics.median(rates),
    }
    # the host's speed drifts by tens of percent over minutes; times are
    # scaled to the speed at which the reference kernel takes REFERENCE_S
    reference = statistics.median(refs)
    scale = REFERENCE_S / reference
    metrics = {name: value / scale if name == "work_per_s" else value * scale
               for name, value in wall.items()}
    metrics["peak_rss_mb"] = peak_kib / 1024
    summary = (f"passes={len(walls)} setups={len(setups)} ops_per_pass={len(ops)} "
               f"reference_ms={reference * 1e3:.4g} wall: "
               + " ".join(f"{name}={value:.6g}" for name, value in wall.items()))
    return workload, ops, outcomes, metrics, summary


def measure_traced(workload_cls, seed: int, seconds: float, docdir: Path):
    hr = import_package()
    tracer = Tracer()
    tracer.install()  # set-up's codec and constructions calls are traced too
    workload = workload_cls()
    ops = workload.build(hr, random.Random(seed), Docs(docdir))
    outcomes: list[dict] = [{} for _ in ops]
    traced = [run_pass(hr, ops, workload.threads, outcomes, tracer)[0]]
    tracer.uninstall()
    spans = tracer.take()
    metrics = layer_metrics(spans, hr.checker)
    SPANS.mkdir(exist_ok=True)
    with open(SPANS / f"spans-{workload.name}-seed{seed}.jsonl", "w") as fh:
        Tracer.dump(spans, fh)
    del spans

    # plain, traced and other-thread-count passes alternate, so that host
    # speed drift hits all three alike
    other = 1 if workload.threads == 2 else 2
    plain, swapped = [], []
    start = perf_counter()
    while not plain or perf_counter() - start < seconds:
        plain.append(run_pass(hr, ops, workload.threads, outcomes)[0])
        swapped.append(run_pass(hr, ops, other, outcomes)[0])
        tracer.install()
        traced.append(run_pass(hr, ops, workload.threads, outcomes, tracer)[0])
        tracer.uninstall()
        tracer.take()
    native, alternate = statistics.median(plain), statistics.median(swapped)
    one, two = (alternate, native) if other == 1 else (native, alternate)
    metrics["checker.parallel_speedup"] = one / two
    metrics["trace.overhead"] = statistics.median(traced) / native - 1
    summary = f"traced_passes={len(traced)} plain_passes={len(plain)} ops_per_pass={len(ops)}"
    return workload, ops, outcomes, metrics, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for need in (SPEC, SRC / "hrcolor" / "__init__.py", TESTS / "oracles.py"):
        if not need.is_file():
            die(f"missing {need}; run from a full checkout")
    spec = json.loads(SPEC.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    # the thread count is passed on every op; nothing may come from the host
    os.environ.pop(THREADS_ENV, None)

    SCRATCH.mkdir(exist_ok=True)
    docdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        run = measure_traced if args.trace else measure
        workload, ops, outcomes, values, summary = run(
            WORKLOADS[args.workload], args.seed, args.seconds, docdir
        )
    finally:
        shutil.rmtree(docdir, ignore_errors=True)
    attempted, failed = verify_all(workload, ops, outcomes)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        die(f"metrics not produced: {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"{args.workload} seed={args.seed} trace={args.trace} {summary} "
          f"attempted={attempted} failed={failed} error_frac={failed / attempted:.6g}")
    for name, m in metrics.items():
        print(f"  {name:32} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
