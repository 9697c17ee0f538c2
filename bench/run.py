"""Benchmark of `toricnash analyze`, end to end and per layer.

    python3 bench/run.py --workload sweep|ideal|batch|all --seed N \
        --seconds S --trace 0|1

Each analysis is cli.build_report(spec) followed by cli.report_json(...),
as `toricnash analyze` runs it: one caller, one process, jobs=1, the next
analysis starting when the previous one ends.  Every report is checked
(see checks.py).  A pass runs every analysis of the workload once.

--trace 0 prints the end-to-end metrics.  Their times are CPU seconds at
a reference machine speed (see speed.py): this process's CPU time, less the
calibration rounds run during it, scaled by how fast the machine ran the
rounds at the time.  The unscaled CPU times are printed too.
  setup_s         median time of separate processes that start, import the
                  library, make the inputs and load the expected outputs
  wall_s          median time of one pass: time to all verdicts
  latency_p50_s   median time of one analysis
  latency_tail_s  time of one analysis at the highest percentile that has
                  at least ten samples beyond it (percentile and sample
                  count are printed)
  peak_rss_mb     peak resident memory of this process
failed_frac, the share of analyses that raised an unexpected error or
failed their check, is printed too; it is also failed / attempted in the
result line.

--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the traced ones (see tracing.py), one row per analysis of the
last traced pass, and trace.overhead_frac: the median over pairs of traced
over untraced pass time, minus one.  These times are wall seconds, unscaled.
Its spans and counters are written to bench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

The number of passes is fixed by --seconds and each workload's scaled
pass time at the commit that introduced the benchmark, so a faster program
does the same work in a shorter run and every run of a workload pools the
same number of samples.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from speed import REF_ROUND_S, Meter, round_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("sweep", "ideal", "batch")
DEFAULT_SEED = 1  # the seed whose batch digests expected.json records
NOMINAL_PASS_S = {"sweep": 8.8, "ideal": 6.9, "batch": 7.1}
MIN_PASSES = 3
SETUP_PROBES = 7
SETUP_STRETCH_S = 0.05  # calibration around each setup probe


def passes_for(workload: str, seconds: int) -> int:
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


def tail_latency(values):
    """(value, percentile, samples) at the highest percentile with at least
    ten samples above it."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        raise ValueError(f"{n} samples: a tail needs at least 11")
    k = n - 11
    return s[k], 100.0 * (k + 1) / n, n


def setup(workload: str, seed: int):
    """Import the library, make the inputs and load the expected outputs."""
    sys.path.insert(0, str(SRC))
    import checks
    import workloads
    items = workloads.inputs(workload, seed)
    checker = checks.Checker(workload, seed, checks.load_expected(),
                             DEFAULT_SEED)
    return items, checker


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_seconds(workload: str, seed: int) -> float:
    """CPU time of a fresh process that only runs setup()."""
    before = children_cpu()
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    "--workload", workload, "--seed", str(seed),
                    "--setup-only"], check=True, stdout=subprocess.DEVNULL)
    return children_cpu() - before


class WallClock:
    """Times work in wall seconds, with the interface of speed.Meter."""

    start = staticmethod(time.perf_counter)

    @staticmethod
    def stop(mark) -> float:
        return time.perf_counter() - mark


def analyze(cli, spec, clock=WallClock):
    """One analysis; returns (seconds, report dict or raised error name)."""
    mark = clock.start()
    try:
        outcome = cli.report_json(cli.build_report(spec))
    except cli.ToricNashError as exc:
        outcome = type(exc).__name__
    except Exception as exc:  # a bug: the check counts it as a failure
        traceback.print_exc()
        outcome = type(exc).__name__
    return clock.stop(mark), outcome


def run_pass(cli, items, checker, trace=None, clock=WallClock):
    """Latencies of one pass and the number of analyses that failed."""
    gc.collect()
    latencies = []
    failed = 0
    for index, (label, spec, expected_error) in enumerate(items):
        if trace is not None:
            trace.current_analysis = index
        dt, outcome = analyze(cli, spec, clock)
        latencies.append(dt)
        problems = checker.problems(index, label, expected_error, outcome)
        if problems:
            failed += 1
            for p in problems:
                print(f"check failed: {p}", file=sys.stderr)
    return latencies, failed


def layer_metrics(totals: dict, counters: Counter, wall: float) -> dict:
    """The per-layer metrics of one traced pass."""
    def s(name, key="s"):
        return totals.get(name, {}).get(key, 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    subsets = counters["nash.subsets"]
    mmf = calls("nash.minor_monomial_formula")
    return {
        "semigroup.validate.s": s("semigroup.validate"),
        "semigroup.validate.calls": calls("semigroup.validate"),
        "semigroup.refused": counters["semigroup.validate.raised"],
        "ideal.toric_ideal.s": s("ideal.toric_ideal"),
        "ideal.toric_ideal.self_s": s("ideal.toric_ideal", "self_s"),
        "ideal.toric_ideal.share": ratio(s("ideal.toric_ideal"), wall),
        "ideal.lattice_kernel.s": s("ideal.lattice_kernel"),
        "ideal.buchberger.s": s("ideal.buchberger"),
        "ideal.buchberger.calls": calls("ideal.buchberger"),
        "ideal.minimal_generators.s": s("ideal.minimal_generators"),
        "ideal.normal_form.calls": calls("ideal.normal_form"),
        "ideal.gb_elements": counters["ideal.gb_elements"],
        "ideal.s_min": counters["ideal.s_min"],
        "nash.top_level.s": s("nash.top_level"),
        "nash.top_level.share": ratio(s("nash.top_level"), wall),
        "nash.singular_locus.calls": calls("nash.singular_locus"),
        "nash.singular_locus.s": s("nash.singular_locus"),
        "nash.search_all_subsets.s": s("nash.search_all_subsets"),
        "nash.verify_dichotomy.s": s("nash.verify_dichotomy"),
        "nash.dim1_selector.s": s("nash.dim1_selector"),
        "nash.rank.calls": calls("nash.rank"),
        "nash.minor_monomial_formula.calls": mmf,
        "nash.minor_symbolic.calls": calls("nash.minor_symbolic"),
        "nash.normal_form.calls": calls("nash.normal_form"),
        "nash.subsets": subsets,
        "nash.rank_ok_ratio": ratio(counters["nash.rank_ok"], subsets),
        "nash.fallback_ratio": ratio(calls("nash.minor_symbolic"), mmf),
        "algebra.determinant.calls": calls("algebra.determinant"),
        "algebra.determinant.s": s("algebra.determinant"),
        "cli.build_report.s": s("cli.build_report"),
        "cli.build_report.self_s": s("cli.build_report", "self_s"),
        "cli.report_json.s": s("cli.report_json"),
        "trace.wall_s": wall,
    }


def unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("ratio", "share", "frac")):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def print_metrics(metrics: dict, notes: dict) -> None:
    for name, value in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:36s} {value:>14.6g} {unit(name):6s} {note}")


def scaled_setups(workload: str, seed: int) -> tuple:
    """(scaled, unscaled) setup_seconds of SETUP_PROBES processes.

    Each is scaled by the calibration rounds run just before and just after
    it in this process.
    """
    rounds = [round_time(SETUP_STRETCH_S)]
    scaled, unscaled = [], []
    for _ in range(SETUP_PROBES):
        unscaled.append(setup_seconds(workload, seed))
        rounds.append(round_time(SETUP_STRETCH_S))
        scaled.append(unscaled[-1] * 2 * REF_ROUND_S / sum(rounds[-2:]))
    return scaled, unscaled


def run_untraced(workload, seed, seconds, items, checker, cli) -> dict:
    setups, raw_setups = scaled_setups(workload, seed)
    passes = passes_for(workload, seconds)
    walls, raw_walls, latencies, failed = [], [], [], 0
    with Meter() as meter:
        for _ in range(passes):
            before = meter.unscaled_s
            lat, bad = run_pass(cli, items, checker, clock=meter)
            walls.append(sum(lat))
            raw_walls.append(meter.unscaled_s - before)
            latencies += lat
            failed += bad
    tail, pct, n = tail_latency(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"workload {workload} seed {seed}: {len(items)} analyses x "
          f"{passes} passes, untraced")
    print_metrics(metrics, {
        "setup_s": f"median of {SETUP_PROBES} processes; unscaled "
                   f"{statistics.median(raw_setups):.4f}",
        "wall_s": f"median of {passes} passes: "
                  + " ".join(f"{w:.3f}" for w in walls),
        "latency_p50_s": f"median of {n} analyses",
        "latency_tail_s": f"p{pct:.2f} of {n} analyses",
    })
    print("  unscaled CPU s per pass: "
          + " ".join(f"{w:.3f}" for w in raw_walls))
    q = statistics.quantiles(meter.ticks, n=4)
    print(f"  calibration round: median {q[1] * 1e3:.4f} ms, quartiles "
          f"{q[0] * 1e3:.4f}-{q[2] * 1e3:.4f} ms over {len(meter.ticks)} "
          f"rounds; "
          f"reference {REF_ROUND_S * 1e3:.4f} ms")
    print(f"  {'failed_frac':36s} {failed / n:>14.6g} ratio  "
          f"{failed} of {n} analyses")
    return {"correct": failed == 0, "attempted": n, "failed": failed,
            "metrics": metrics}


def print_analysis_rows(trace, items, lo, hi) -> None:
    rows = trace.summary(lo, hi, by_analysis=True)
    cols = ["cli.build_report", "semigroup.validate", "ideal.toric_ideal",
            "nash.top_level", "cli.report_json"]
    print("  analysis  label               " + " ".join(
        f"{c.split('.')[-1] + '_s':>18s}" for c in cols)
        + f" {'minor_calls':>12s} {'fallbacks':>10s}")
    for index, (label, _, _) in enumerate(items):
        row = rows.get(index, {})
        print(f"  {index:8d}  {label:18s}  " + " ".join(
            f"{row.get(c, {}).get('s', 0.0):18.6f}" for c in cols)
            + f" {row.get('nash.minor_monomial_formula', {}).get('calls', 0):12d}"
            f" {row.get('nash.minor_symbolic', {}).get('calls', 0):10d}")


def run_traced(workload, seed, seconds, items, checker, cli) -> dict:
    from tracing import Trace
    trace = Trace()
    pairs = max(1, round(passes_for(workload, seconds) / 2))
    untraced, traced, per_pass = [], [], []
    failed = attempted = 0
    for _ in range(pairs):
        lat, bad = run_pass(cli, items, checker)
        untraced.append(sum(lat))
        failed += bad
        lo, before = len(trace), Counter(trace.counters)
        t0 = time.perf_counter()
        with trace.installed():
            lat, bad = run_pass(cli, items, checker, trace)
        traced.append(sum(lat))
        failed += bad
        attempted += 2 * len(lat)
        counters = Counter(trace.counters)
        counters.subtract(before)
        per_pass.append(layer_metrics(trace.summary(lo, len(trace)),
                                      counters, sum(lat)))
    metrics = {name: statistics.median(p[name] for p in per_pass)
               for name in per_pass[0]}
    # each traced pass is compared with the untraced pass just before it,
    # so that drift in machine speed between pairs cancels
    metrics["trace.overhead_frac"] = statistics.median(
        t / u for t, u in zip(traced, untraced)) - 1
    print(f"workload {workload} seed {seed}: {len(items)} analyses x "
          f"{pairs} untraced and {pairs} traced passes")
    print_metrics(metrics, {})
    print("last traced pass, one row per analysis:")
    print_analysis_rows(trace, items, lo, len(trace))
    OUT.mkdir(exist_ok=True)
    trace.write_csv(OUT / f"spans-{workload}.csv", lo, len(trace), t0)
    (OUT / f"trace-{workload}.json").write_text(json.dumps(
        {"seed": seed, "counters": dict(counters), "metrics": metrics},
        indent=1, sort_keys=True) + "\n")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args) -> dict:
    """Every workload, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=True, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "toricnash" / "__init__.py").is_file():
        print(f"toricnash sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        items, checker = setup(args.workload, args.seed)
        if args.setup_only:
            return 0
        from toricnash import cli
        run = run_traced if args.trace else run_untraced
        result = run(args.workload, args.seed, args.seconds, items, checker,
                     cli)
        result["metrics"] = {k: {"value": v, "unit": unit(k)}
                             for k, v in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
